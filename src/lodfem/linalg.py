"""The sparse solver kernel shared by assembly, correctors, and the harness.

Matrices are scipy CSR or CSC (``indptr``/``indices``/``data`` are the
offsets, indices, and values of the compressed-sparse-row or -column
layout).  One kernel, SaddleFactorization, does every linear solve in the
package: the equality-constrained quadratic solve

    minimize 1/2 x'Ax - b'x   subject to  Cx = 0,

through its KKT system [[A, C'], [C, 0]] [x; mu] = [b; 0].  With
constraints (m > 0) A is symmetric positive definite and the constraints
have full row rank (the rows of a quasi-interpolation are local and
linearly independent).  A sparse system is then one SuperLU factorization
of the KKT matrix K, built as CSC with A's dofs in the order they are given
and the constraint rows last, and factorized in that order with diagonal
pivots.  A's pivots come first and exist because A is SPD; what remains is
-S, for the Schur complement S = C A^-1 C', which is negative definite.  So
this is the Schur-complement elimination done sparsely, and one solve of
[r; q] gives x and mu.  The patch solvers hand over their stiffness in the
fine mesh's elimination order, and the whole-domain projection permutes its
system into that order.  A stack of small dense SPD systems, A of shape
(P, n, n) with C of shape (P, m, n), is the batched case: LAPACK Cholesky
factors each A and each dense S, Y = A^-1 C' is kept, and every step works
on the whole stack at once.  An unconstrained solve Ax = b is the case of C
with zero rows (m = 0), in which K is A and need not be symmetric: A that
equals its transpose bit for bit (as the fine stiffness does) is factorized
as the KKT matrix is, in the order given with diagonal pivots, so the
reference solve hands it over in the elimination order; any other A (the
Galerkin and Petrov-Galerkin coarse matrices) takes SuperLU's default
pivoted ordering.  Right-hand sides are dense and worked on whole.
The kernel polishes with iterative refinement; one per-column acceptance
test to a finite positive tol (else ValueError) decides both which columns
are refined and whether the solve succeeds.  There is one failure type: a
factorization that fails, or a solve that misses the test, raises
SolverFailure; a missed solve carries the achieved residual, and a stack
names its failing system.  Solves are pure functions of their inputs, so
repeated or concurrent calls on shared immutable matrices are
deterministic, and each system of a stack gets the same bits whatever else
is stacked with it up to refinement, which visits the columns that fail in
any system of the stack.
"""

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpotrf, dpotrs

_REFINE_STEPS = 2


class SolverFailure(RuntimeError):
    """A factorization failed or a solve missed its tolerance; `system` is
    the index of the first failing system of a stack, None for one system."""

    def __init__(self, message, residual=None, system=None):
        super().__init__(message)
        self.residual = residual
        self.system = system


def spd_solve(A, b, tol=1e-10):
    """Solve Ax = b for square A, SPD or not symmetric, to a relative residual.

    The unconstrained case of SaddleFactorization (m = 0): a bit-symmetric A
    is factorized in the order given, any other A (the Galerkin and
    Petrov-Galerkin coarse matrices) with SuperLU's pivoted ordering;
    deterministic for fixed inputs.  Raises SolverFailure if the
    factorization fails or the residual target is missed.
    """
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1] or b.shape != (A.shape[0],):
        raise ValueError(f"shape mismatch: matrix {A.shape}, vector {b.shape}")
    no_constraints = sparse.csr_matrix((0, A.shape[0]))
    return SaddleFactorization(A, no_constraints).solve(b, tol)[0]


def _cholesky(A):
    """Transposed lower Cholesky factor of each SPD matrix of a stack
    (P, n, n); SolverFailure naming the first that is not positive
    definite.  Stored transposed, each factor's transpose is the Fortran
    order that dpotrs takes without a copy."""
    L = np.empty(A.shape)
    for i in range(A.shape[0]):
        c, info = dpotrf(A[i], lower=1, clean=0)
        L[i] = c.T
        if info:
            raise SolverFailure(f"factorization failed: matrix {i} of the "
                                "stack is not positive definite", system=i)
    return L


def _cho_solve(L, B):
    """Solve with each factor of a stack (P, n, n) of _cholesky its block of
    right-hand sides (P, n, k)."""
    X = np.empty_like(B)
    for i in range(L.shape[0]):
        X[i], _ = dpotrs(L[i].T, B[i], lower=1)
    return X


def _kkt(A, C):
    """The KKT matrix [[A, C'], [C, 0]] as CSC, A's columns in the order
    given and the rows of C last: column j < n is column j of A over column
    j of C, and column n + i is row i of C.  It is built from A, C and one
    CSC copy of C, with positions in their index dtype (int32 for every
    system here).  Built so, the global row at fine 64 / coarse 16 peaks at
    0.24 dense n x m arrays of memory, under the 0.3 that
    test_global_row_memory_peak allows; with int64 positions it took 0.28,
    and built by scipy's bmat 0.32."""
    A, C = A.tocsc(), C.tocsr()
    Ccol = C.tocsc()
    n, top = A.shape[0], A.nnz + C.nnz
    indptr = np.concatenate([A.indptr + Ccol.indptr, top + C.indptr[1:]])
    data = np.empty(top + C.nnz)
    indices = np.empty(data.size, dtype=indptr.dtype)
    at = np.arange(A.nnz, dtype=indptr.dtype) + np.repeat(
        Ccol.indptr[:-1], np.diff(A.indptr))
    data[at], indices[at] = A.data, A.indices
    at = np.arange(C.nnz, dtype=indptr.dtype) + np.repeat(
        A.indptr[1:], np.diff(Ccol.indptr))
    data[at], indices[at] = Ccol.data, Ccol.indices + n
    data[top:], indices[top:] = C.data, C.indices
    return sparse.csc_matrix((data, indices, indptr),
                             shape=(n + C.shape[0],) * 2)


class SaddleFactorization:
    """Reusable factorization of a KKT system for many right-hand sides.

    Given sparse A (n, n) and C (m, n) with m > 0, SuperLU factorizes the
    KKT matrix K (see _kkt) once, and each application is one solve of
    [r; q] for [x; mu]; with m = 0, K is A as CSC (A itself if canonical
    CSC, else a sorted copy: the caller's A is never changed).  Given
    numpy stacks A (P, n, n) and C (P, m, n), it factorizes P systems at
    once through their Schur complements S = C A^-1 C', so each application
    is u = A^-1 r, mu = S^-1 (C u - q), x = u - Y mu with Y = A^-1 C' kept,
    and it solves right-hand sides (P, n) or (P, n, k).  The constraints
    must have full row rank.  A factorization that fails (SuperLU rejects K,
    or A of a stack or S is not positive definite) raises SolverFailure, as
    does a solve that fails the test.
    """

    def __init__(self, A, C):
        self.n = A.shape[-1]
        self.m = C.shape[-2]
        self.lead = A.shape[:-2]  # (P,) for a stack, () otherwise
        if self.lead:
            self.A, self.C, self.Ct = A, C, C.transpose(0, 2, 1)
            # A is symmetric, so its transpose is A in the Fortran order
            # that dpotrf takes without a copy; S = C Y is not, bit for bit
            self._chol = _cholesky(A.transpose(0, 2, 1))
            self._Y = _cho_solve(self._chol, self.Ct)
            self._schur = _cholesky(self.C @ self._Y)
            return
        self.K = _kkt(A, C) if self.m else A.tocsc()
        if self.K is A and not A.has_canonical_format:
            self.K = A.sorted_indices()  # splu sorts its input in place
        try:
            if self.m or (self.K != self.K.T).nnz == 0:
                # K in the order given, diagonal pivots only: A's first,
                # then the constraints'.  One column per panel: with
                # SuperLU's default of 8 the benchmark's global and
                # patch-large sweeps peaked at 110.4-110.8 and 121.6-121.9
                # MiB RSS, against 105.8 and 117.7-118.7 MiB (3 runs each,
                # 2 vCPUs).
                lu = spla.splu(self.K, permc_spec="NATURAL",
                               diag_pivot_thresh=0, panel_size=1,
                               options=dict(SymmetricMode=True))
            else:
                lu = spla.splu(self.K)
        except RuntimeError as exc:
            raise SolverFailure(f"factorization failed: {exc}") from exc
        self._solve_K = lu.solve

    def _apply(self, r, q):
        """(x, mu) solving A x + C'mu = r, C x = q."""
        if self.lead:
            u = _cho_solve(self._chol, r)
            mu = _cho_solve(self._schur, self.C @ u - q)
            u -= self._Y @ mu
            return u, mu
        z = self._solve_K(np.concatenate([r, q]))
        return z[:self.n], z[self.n:]

    def _residual(self, B, x, mu):
        """Split residual (r, q) of the KKT system."""
        if self.lead:
            return B - self.A @ x - self.Ct @ mu, -(self.C @ x)
        z = self.K @ np.concatenate([x, mu])
        return B - z[:self.n], -z[self.n:]

    def _test(self, B, x, mu, tol):
        """Columns failing the acceptance test, with their stationarity and
        feasibility residual norms."""
        stat, feas, x_norm, b_norm = (np.linalg.norm(v, axis=-2) for v in
                                      (*self._residual(B, x, mu), x, B))
        failed = ~(np.isfinite(stat) & np.isfinite(feas)) \
            | (stat > tol * b_norm) | (feas > tol * np.maximum(1.0, x_norm))
        return failed, stat, feas

    def solve(self, b, tol=1e-10):
        """Solve for one dense right-hand side (n,) or a block of them (n, k).

        A stack takes (P, n) or (P, n, k); tol > 0 must be finite.  A column
        is accepted when its stationarity residual is at most tol ||b|| and
        its feasibility residual at most tol max(1, ||x||), both finite.  The
        columns that fail this test in any system are refined, at most
        _REFINE_STEPS times, and each system keeps the correction of the
        columns it failed; any column still failing raises SolverFailure.
        x and mu come back with b's number of columns.
        """
        if not 0 < tol < np.inf:
            raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
        lead = self.lead
        b = np.asarray(b, dtype=float)
        if b.ndim - len(lead) not in (1, 2) or \
                b.shape[:len(lead) + 1] != (*lead, self.n):
            raise ValueError(f"shape mismatch: system size {self.n}, rhs {b.shape}")
        B = b.reshape(*lead, self.n, -1)
        x, mu = self._apply(B, np.zeros((*lead, self.m, B.shape[-1])))
        for step in range(_REFINE_STEPS + 1):
            failed, stat, feas = self._test(B, x, mu, tol)
            if step == _REFINE_STEPS or not failed.any():
                break
            cols = failed.reshape(-1, failed.shape[-1]).any(axis=0)
            sub, keep = (..., cols), failed[..., None, cols]
            dx, dmu = self._apply(*self._residual(B[sub], x[sub], mu[sub]))
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
