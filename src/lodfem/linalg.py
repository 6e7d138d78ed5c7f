"""The sparse solver kernel shared by assembly, correctors, and the harness.

Matrices are scipy CSR (``indptr``/``indices``/``data`` are the row offsets,
column indices, and values of the compressed-sparse-row layout).  One kernel,
SaddleFactorization, does every linear solve in the package: the
equality-constrained quadratic solve

    minimize 1/2 x'Ax - b'x   subject to  Cx = 0,

handled through the Schur complement of its KKT system.  With constraints
(m > 0) A is symmetric positive definite, so SuperLU factorizes it once in
its symmetric mode (diagonal pivots): a CSC A in the order it is given, as
the patch solvers hand over their stiffness in the mesh's elimination
order, and any other A in the minimum-degree order of A'+A.  The small
dense Schur complement S = C A^-1 C' is Cholesky-factorized; S is positive
definite because the constraints have full row rank (the rows of a
quasi-interpolation are local and linearly independent).  Y = A^-1 C' is
kept while it has at most twice the entries of SuperLU's factor, as for
every patch of the paper grid; a whole-domain system keeps no n x m
array (see SaddleFactorization).  An unconstrained solve Ax = b is the
case of C with zero rows (m = 0), in which A need not be symmetric:
SuperLU takes its symmetric mode when A equals its transpose bit for bit
(as the fine stiffness does), and its default pivoted ordering otherwise
(as for the Petrov-Galerkin matrix).  The A-orthogonal
projection of p onto the kernel of C, x = p - A^-1 C'(C A^-1 C')^-1 C p,
is the solve of b = A p; `project` starts that solve from u = A^-1 b = p,
so that it does no A-solve of its right-hand sides.  A stack of small
dense SPD systems, A of shape (P, n, n) with C of shape (P, m, n), is the
batched case: LAPACK Cholesky factors each A and each S, and every step
below works on the whole stack at once.  Right-hand sides are dense and
worked on whole; only the columns of C' are solved in column blocks (see
_BLOCK_BYTES).  The kernel polishes with iterative refinement; one
per-column acceptance test decides both which columns are refined and
whether the solve succeeds.  There is one failure
type: a factorization that fails, or a solve that misses the test, raises
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
# SuperLU solves the columns of C' (for Y or S) in blocks of about
# _BLOCK_BYTES and at least _MIN_BLOCK_COLUMNS columns, as it copies its
# right-hand sides and allocates as much again for work.  On the
# global system at fine 128 it solves 8 columns at a time about 1.6 times
# faster per column than 2.
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
    """Solve Ax = b for square A, SPD or not symmetric, to a relative residual.

    The unconstrained case of SaddleFactorization (m = 0); deterministic for
    fixed inputs.  Raises SolverFailure if the factorization fails or the
    residual target is missed.
    """
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1] or b.shape != (A.shape[0],):
        raise ValueError(f"shape mismatch: matrix {A.shape}, vector {b.shape}")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    no_constraints = sparse.csr_matrix((0, A.shape[0]))
    return SaddleFactorization(A, no_constraints).solve(b, tol)[0]


def _cholesky(A):
    """Transposed lower Cholesky factor of an SPD matrix (n, n), or of each
    matrix of a stack (P, n, n); SolverFailure if one is not positive
    definite.  Stored transposed, each factor's transpose is the Fortran
    order that dpotrs takes without a copy."""
    L = np.empty_like(A)
    for i in np.ndindex(A.shape[:-2]):
        c, info = dpotrf(A[i], lower=1, clean=0)
        L[i] = c.T
        if info:
            which = f" {i[0]} of the stack" if i else ""
            raise SolverFailure(
                f"factorization failed: matrix{which} is not positive definite",
                system=i[0] if i else None)
    return L


def _cho_solve(L, B):
    """Solve with the factor `L` (n, n) of _cholesky the right-hand sides
    `B` (n, k), or with each factor of a stack (P, n, n) its block of `B`
    (P, n, k)."""
    X = np.empty_like(B)
    for i in np.ndindex(L.shape[:-2]):
        X[i], _ = dpotrs(L[i].T, B[i], lower=1)
    return X


def _column_blocks(B):
    """Column slices of B (n, k) in blocks of about _BLOCK_BYTES and at least
    _MIN_BLOCK_COLUMNS columns (fewer only if B has fewer)."""
    n, k = B.shape
    width = max(_MIN_BLOCK_COLUMNS, _BLOCK_BYTES // (8 * n))
    count = max(1, k // width)
    bounds = [k * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _solve_constraint_columns(solve, C):
    """solve(C') for the sparse C (m, n), made dense a column block of C'
    (rows of C) at a time; the result of more than one block is C-ordered,
    as scipy's sparse products would copy a dense operand that is not."""
    blocks = _column_blocks(C.T)
    if len(blocks) == 1:
        return solve(C.T.toarray())
    X = np.empty(C.T.shape)
    for cols in blocks:
        X[:, cols] = solve(C[cols].T.toarray())
    return X


class SaddleFactorization:
    """Reusable Schur-complement factorization for many right-hand sides.

    A is factorized once; with constraints, S = C A^-1 C' is formed by block
    solves and Cholesky-factorized, so each application is u = A^-1 r,
    mu = S^-1 (C u - q), x = u - A^-1 C'mu.  Y = A^-1 C' is kept for the
    last step while n m is at most twice the entries of SuperLU's factor
    (always for a stack); past that, S is summed a column block at a time,
    x = u - A^-1 (C'mu) takes one more A-solve, and no n x m array is
    kept.  The constraints must have full row rank, so that S is positive
    definite.  SuperLU factorizes a constrained CSC A in the order it is
    given and any other sparse A in its own.

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
            # a constrained CSC system is factorized in the order it is given
            ordered = self.m > 0 and A.format == "csc"
            self.A = A if ordered else A.tocsr()
            self.C = C.tocsr()
            self.Ct = self.C.T
            options = {}
            if self.m or (self.A != self.A.T).nnz == 0:
                options = dict(
                    permc_spec="NATURAL" if ordered else "MMD_AT_PLUS_A",
                    diag_pivot_thresh=0, options=dict(SymmetricMode=True))
            try:
                lu = spla.splu(A if ordered else sparse.csc_matrix(A), **options)
            except RuntimeError as exc:
                raise SolverFailure(f"factorization failed: {exc}") from exc
            self._solve_A = lu.solve
        if self.m == 0:
            return
        # Every patch of the paper grid keeps Y (n m / nnz 0.06-1.47);
        # whole-domain systems do not (3.5 at fine 128 / coarse 16, 46 at
        # fine 256 / coarse 64, where Y is 1969 MiB).
        if isinstance(A, np.ndarray):
            self._Y = self._solve_A(self.Ct)
            schur = self.C @ self._Y
        elif self.n * self.m <= 2 * lu.nnz:
            self._Y = _solve_constraint_columns(self._solve_A, self.C)
            schur = self.C @ self._Y
        else:
            self._Y = None
            schur = np.empty((self.m, self.m))
            for cols in _column_blocks(self.Ct):
                schur[:, cols] = self.C @ self._solve_A(
                    self.C[cols].T.toarray())
        schur = _cholesky(schur)
        self._solve_S = lambda r: _cho_solve(schur, r)

    def _apply(self, r, q, u=None):
        """(x, mu) solving A x + C'mu = r, C x = q, x formed in place of
        u = A^-1 r, or of the `u` a caller passes when it knows A^-1 r."""
        if u is None:
            u = self._solve_A(r)
        if self.m == 0:
            return u, np.zeros(q.shape)
        mu = self._solve_S(self.C @ u - q)
        u -= self._solve_A(self.Ct @ mu) if self._Y is None else self._Y @ mu
        return u, mu

    def _residual(self, B, x, mu):
        """Split residual (r, q) of the KKT system."""
        return B - self.A @ x - self.Ct @ mu, -(self.C @ x)

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

        A stack takes (P, n) or (P, n, k).  A column is accepted when its
        stationarity residual is at most tol ||b|| and its feasibility
        residual at most tol max(1, ||x||), both finite.  The columns that
        fail this test in any system are refined, at most _REFINE_STEPS
        times, and each system keeps the correction of the columns it
        failed; any column still failing raises SolverFailure.  x and mu come
        back with b's number of columns.
        """
        B, q, single = self._block(b)
        x, mu = self._apply(B, q)
        return self._refined(B, x, mu, tol, single)

    def project(self, p, tol=1e-10):
        """A-orthogonal projection x = p - A^-1 C'(C A^-1 C')^-1 C p of p
        onto the kernel of C, with its multiplier mu.

        This is the solve of b = A p, started from u = p in place of
        u = A^-1 b, so that only the constraints are solved for:
        mu = S^-1 C p and x = p - Y mu.  p takes the shapes b does in
        `solve`, and x is then accepted, refined (with A-solves of the
        residual) or rejected as there.
        """
        P, q, single = self._block(p)
        B = self.A @ P
        x, mu = self._apply(B, q, P.copy())
        return self._refined(B, x, mu, tol, single)

    def _block(self, b):
        """The right-hand sides `b` as a block B (..., n, k), zero constraint
        right-hand sides q for it, and whether `b` was a single column."""
        lead = self.A.shape[:-2]  # (P,) for a stack, () otherwise
        b = np.asarray(b, dtype=float)
        if b.ndim - len(lead) not in (1, 2) or \
                b.shape[:len(lead) + 1] != (*lead, self.n):
            raise ValueError(f"shape mismatch: system size {self.n}, rhs {b.shape}")
        B = b.reshape(*lead, self.n, -1)
        return B, np.zeros((*lead, self.m, B.shape[-1])), \
            b.ndim == len(lead) + 1

    def _refined(self, B, x, mu, tol, single):
        """(x, mu) of the right-hand sides B after refinement (see solve),
        or SolverFailure; one column each if `single`."""
        lead = self.A.shape[:-2]
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
        if single:
            return x[..., 0], mu[..., 0]
        return x, mu
