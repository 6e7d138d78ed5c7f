import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, strategies as st

from lodfem import SolverFailure, linalg, spd_solve
from lodfem.linalg import SaddleFactorization

import oracles


def csr(dense):
    return sparse.csr_matrix(np.asarray(dense, dtype=float))


def random_spd(rng, n):
    B = rng.standard_normal((n, n))
    return B @ B.T + n * np.eye(n)


def test_spd_identity():
    b = np.array([3.0, -1.0, 2.5])
    x = spd_solve(csr(np.eye(3)), b)
    np.testing.assert_array_equal(x, b)


def test_spd_two_by_two_hand_case():
    x = spd_solve(csr([[2, 1], [1, 2]]), np.array([3.0, 3.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)


def test_spd_zero_rhs():
    x = spd_solve(csr([[2, 1], [1, 2]]), np.zeros(2))
    assert np.all(x == 0)


def test_spd_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        spd_solve(csr(np.eye(3)), np.ones(2))


def test_spd_against_dense_oracle(rng):
    for n in (5, 12, 30):
        A = random_spd(rng, n)
        b = rng.standard_normal(n)
        x = spd_solve(csr(A), b)
        np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-8)


def test_spd_deterministic(rng):
    A = csr(random_spd(rng, 20))
    b = rng.standard_normal(20)
    x1 = spd_solve(A, b)
    x2 = spd_solve(A, b)
    assert np.array_equal(x1, x2)


def test_spd_singular_raises():
    """SuperLU rejects a singular matrix, whether or not the right-hand side
    is consistent with it."""
    A = csr([[1.0, 0.0], [0.0, 0.0]])
    for b in ([1.0, 1.0], [2.0, 0.0]):
        with pytest.raises(SolverFailure, match="factorization failed"):
            spd_solve(A, np.array(b))


def test_saddle_no_constraints_reduces_to_spd(rng):
    A = random_spd(rng, 8)
    b = rng.standard_normal(8)
    x, mu = SaddleFactorization(csr(A), sparse.csr_matrix((0, 8))).solve(b)
    assert mu.size == 0
    np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-10)


def test_saddle_no_constraints_takes_a_csc_matrix_as_k(rng):
    """With zero constraint rows a CSC A is the factorized matrix itself:
    no KKT copy is made."""
    A = sparse.csc_matrix(random_spd(rng, 8))
    factorization = SaddleFactorization(A, sparse.csr_matrix((0, 8)))
    assert factorization.K is A
    b = rng.standard_normal(8)
    np.testing.assert_allclose(factorization.solve(b)[0],
                               np.linalg.solve(A.toarray(), b), atol=1e-10)


def test_saddle_projection_hand_case():
    x, mu = SaddleFactorization(csr(np.eye(2)), csr([[1.0, 1.0]])).solve(
        np.array([1.0, 0.0]))
    np.testing.assert_allclose(x, [0.5, -0.5], atol=1e-12)


def test_saddle_zero_rhs():
    x, mu = SaddleFactorization(csr(np.eye(3)), csr([[1, 1, 0]])).solve(
        np.zeros(3))
    assert np.all(x == 0)
    assert np.all(mu == 0)


def test_saddle_against_dense_kkt_oracle(rng):
    for n, m in ((6, 2), (15, 5), (30, 10)):
        A = random_spd(rng, n)
        C = rng.standard_normal((m, n))
        b = rng.standard_normal((n, 3))
        fac = SaddleFactorization(csr(A), csr(C))
        singles = []
        for j in range(3):
            x, mu = fac.solve(b[:, j])
            x_ref, _ = oracles.dense_kkt_solve(A, C, b[:, j])
            np.testing.assert_allclose(x, x_ref, atol=1e-8)
            assert np.linalg.norm(C @ x) <= 1e-10 * max(1.0, np.linalg.norm(x))
            singles.append((x, mu))
        # the same right-hand sides as one block: each column matches its
        # single solve
        X, MU = fac.solve(b)
        assert X.shape == (n, 3) and MU.shape == (m, 3)
        for j, (x, mu) in enumerate(singles):
            np.testing.assert_allclose(X[:, j], x, rtol=1e-12,
                                       atol=1e-12 * np.abs(x).max())
            np.testing.assert_allclose(MU[:, j], mu, rtol=1e-12,
                                       atol=1e-12 * np.abs(mu).max())
        with pytest.raises(ValueError, match="shape mismatch"):
            fac.solve(np.ones((n + 1, 3)))


def test_saddle_minimizes_energy_over_kernel(rng):
    n, m = 12, 4
    A = random_spd(rng, n)
    C = rng.standard_normal((m, n))
    b = rng.standard_normal(n)
    x, _ = SaddleFactorization(csr(A), csr(C)).solve(b)
    objective = 0.5 * x @ A @ x - b @ x
    import scipy.linalg as sla
    Z = sla.null_space(C)
    for _ in range(10):
        y = x + Z @ rng.standard_normal(Z.shape[1]) * 0.1
        assert 0.5 * y @ A @ y - b @ y >= objective - 1e-10


def test_saddle_rank_deficient_constraints(rng):
    """A zero constraint row makes the system exactly singular: the sparse
    path's KKT factorization meets a zero pivot, and a stack of one finds
    its Schur complement not positive definite; both raise SolverFailure.
    With a duplicated row, rounding decides whether the factorization
    fails; a solve that passes gives the full-rank minimizer."""
    n = 10
    A = random_spd(rng, n)
    C1 = rng.standard_normal((3, n))
    b = rng.standard_normal(n)
    x_full, _ = SaddleFactorization(csr(A), csr(C1)).solve(b)
    zero_row = np.vstack([C1, np.zeros(n)])
    for make, message in (
            (lambda C: SaddleFactorization(csr(A), csr(C)), "exactly singular"),
            (lambda C: SaddleFactorization(A[None], C[None]),
             "not positive definite")):
        with pytest.raises(SolverFailure, match=message):
            make(zero_row)
        try:
            fac = make(np.vstack([C1, C1[0]]))
            x_dup, _ = fac.solve(b[None] if fac.lead else b)
        except SolverFailure:
            continue
        np.testing.assert_allclose(x_dup.reshape(n), x_full, atol=1e-8)


def test_refinement_fixes_columns_that_fail_acceptance(monkeypatch):
    """Refinement targets the acceptance test itself: a column whose
    feasibility misses tol * max(1, ||x||) is refined, even when its whole
    residual is small next to tol * ||b||, and then accepted."""
    A = csr(1e6 * np.eye(4))
    C = csr([[1.0, 0.0, 0.0, 0.0]])
    b = np.full(4, 5e5)  # ||b|| = 1e6 while ||x|| < 1
    fact = SaddleFactorization(A, C)
    apply, calls = fact._apply, []

    def first_step_off_the_constraint(r, q):
        x, mu = apply(r, q)
        if not calls:
            # move x off C x = 0 by 1e-6 and keep A x + C'mu unchanged
            x[0] += 1e-6
            mu[0] -= 1.0
        calls.append(r.shape[1])
        return x, mu

    monkeypatch.setattr(fact, "_apply", first_step_off_the_constraint)
    x, mu = fact.solve(b, tol=1e-10)
    assert calls == [1, 1]
    assert abs(x[0]) <= 1e-10
    np.testing.assert_allclose(x[1:], 0.5, rtol=1e-12)


def test_refinement_visits_only_failed_columns(monkeypatch):
    """Failed columns of a block of right-hand sides are found, refined
    together and accepted, and the other columns are left as they were."""
    A = csr(1e6 * np.eye(4))
    C = csr([[1.0, 0.0, 0.0, 0.0]])
    b = np.full((4, 4), 5e5) * np.arange(1.0, 5.0)
    fact = SaddleFactorization(A, C)
    apply, calls = fact._apply, []

    def columns_1_and_2_off_the_constraint(r, q):
        x, mu = apply(r, q)
        if not calls:
            x[0, 1:3] += 1e-6
            mu[0, 1:3] -= 1.0
        calls.append(r.shape[1])
        return x, mu

    monkeypatch.setattr(fact, "_apply", columns_1_and_2_off_the_constraint)
    x, mu = fact.solve(b, tol=1e-10)
    assert calls == [4, 2]
    assert np.all(np.abs(x[0]) <= 1e-10)
    np.testing.assert_allclose(x[1:], b[1:] / 1e6, rtol=1e-12)
    untouched, _ = SaddleFactorization(A, C).solve(b[:, [0, 3]], tol=1e-10)
    assert np.array_equal(x[:, [0, 3]], untouched)


def test_stack_refines_the_columns_failing_in_any_system(monkeypatch):
    """A stack refines each column that fails in some system and keeps the
    correction only where the test failed: system 0's column 1 is refined
    and accepted; system 1's column 1, which passes with a small error, and
    the other columns keep their first solve."""
    A = np.stack([1e6 * np.eye(4)] * 2)
    C = np.stack([[[1.0, 0.0, 0.0, 0.0]]] * 2)
    b = np.full((2, 4, 3), 5e5) * np.arange(1.0, 4.0)
    fact = SaddleFactorization(A, C)
    apply, calls = fact._apply, []

    def column_1_of_system_0_off_the_constraint(r, q):
        x, mu = apply(r, q)
        if not calls:
            x[0, 0, 1] += 1e-6
            mu[0, 0, 1] -= 1.0
            x[1, 0, 1] += 1e-12
        calls.append(r.shape)
        return x, mu

    monkeypatch.setattr(fact, "_apply", column_1_of_system_0_off_the_constraint)
    x, mu = fact.solve(b, tol=1e-10)
    assert calls == [(2, 4, 3), (2, 4, 1)]
    expected, _ = SaddleFactorization(A, C).solve(b, tol=1e-10)
    assert abs(x[0, 0, 1]) <= 1e-10
    np.testing.assert_allclose(x[0, 1:, 1], expected[0, 1:, 1], rtol=1e-12)
    x[0, :, 1] = expected[0, :, 1]
    expected[1, 0, 1] += 1e-12
    assert np.array_equal(x, expected)


def test_solve_in_column_blocks(rng):
    """On a diagonal system, where no sum depends on how columns are
    grouped, each column of a block solve equals its one-column solve bit
    for bit."""
    n, k = 40, 9
    A = sparse.diags(rng.uniform(1.0, 10.0, n)).tocsr()
    C = sparse.csr_matrix(([1.0, -2.0], ([0, 0], [3, 17])), shape=(1, n))
    b = rng.standard_normal((n, k))
    fact = SaddleFactorization(A, C)
    x, mu = fact.solve(b)
    for j in range(k):
        xj, muj = fact.solve(b[:, j])
        assert np.array_equal(x[:, j], xj) and np.array_equal(mu[:, j], muj)


@pytest.mark.parametrize("symmetric, constrained", [
    (True, None), (False, None), (True, "csc"), (True, "csr")],
    ids=["True", "False", "constrained-csc", "constrained-csr"])
def test_superlu_mode_follows_the_matrix(rng, monkeypatch, symmetric,
                                         constrained):
    """A bit-symmetric A without constraints and the (n + m)^2 KKT matrix
    with them, CSC or CSR, share one rule: SuperLU factorizes the matrix in
    the order it is built (NATURAL), in the symmetric mode, one column per
    panel.  Any other A takes the default pivoted ordering.  Each solves to
    the tolerance."""
    A = random_spd(rng, 12)
    if not symmetric:
        A[0, 1] += 1e-3
    C = rng.standard_normal((3 if constrained else 0, 12))
    splu, modes = linalg.spla.splu, []

    def recorded(matrix, **options):
        modes.append((matrix.shape, options))
        return splu(matrix, **options)

    monkeypatch.setattr(linalg.spla, "splu", recorded)
    b = rng.standard_normal(12)
    matrix = sparse.csc_matrix(A) if constrained == "csc" else csr(A)
    x, _ = SaddleFactorization(matrix, csr(C)).solve(b)
    kkt = np.block([[A, C.T], [C, np.zeros((C.shape[0],) * 2)]])
    expected = np.linalg.solve(kkt, np.concatenate([b, np.zeros(C.shape[0])]))
    np.testing.assert_allclose(x, expected[:12], rtol=1e-10,
                               atol=1e-12 * np.abs(expected).max())
    if symmetric:
        options = dict(permc_spec="NATURAL", diag_pivot_thresh=0,
                       panel_size=1, options=dict(SymmetricMode=True))
    else:
        options = {}
    assert modes == [(kkt.shape, options)]


def test_saddle_deterministic(rng):
    A = csr(random_spd(rng, 15))
    C = csr(rng.standard_normal((4, 15)))
    b = rng.standard_normal(15)
    x1, mu1 = SaddleFactorization(A, C).solve(b)
    x2, mu2 = SaddleFactorization(A, C).solve(b)
    assert np.array_equal(x1, x2) and np.array_equal(mu1, mu2)


@given(n=st.integers(1, 12), data=st.data())
def test_solve_matches_dense_oracle_or_fails(n, data):
    """Constrained (SPD A) and unconstrained (SPD or nonsymmetric A) solves
    under a diagonal scaling of up to 1e6: each column meets the tolerance
    against a dense KKT oracle, or the solve raises SolverFailure; never a
    NaN."""
    m = data.draw(st.integers(0, n // 2), label="m")
    spd = m > 0 or data.draw(st.booleans(), label="SPD A")
    k = data.draw(st.integers(1, 3), label="columns")
    scale = data.draw(st.floats(0.0, 6.0), label="log10 scaling")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                          label="seed"))
    if spd:
        A = random_spd(rng, n)
    else:
        A = rng.standard_normal((n, n)) + rng.uniform(0, n) * np.eye(n)
    d = 10.0 ** (scale * rng.random(n))
    A = d[:, None] * A * d[None, :]
    if spd:
        # bit-symmetric, so that m = 0 takes SuperLU's NATURAL order
        A = np.triu(A) + np.triu(A, 1).T
    C = rng.standard_normal((m, n))
    b = rng.standard_normal((n, k))
    K = np.block([[A, C.T], [C, np.zeros((m, m))]])
    cond = np.linalg.cond(K)
    tol = 1e-10
    try:
        x, mu = SaddleFactorization(csr(A), csr(C)).solve(
            b[:, 0] if k == 1 else b, tol)
    except SolverFailure:
        assert cond > 1e8, f"well-conditioned system (cond {cond:.1e}) failed"
        return
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(mu))
    X, MU = x.reshape(n, k), mu.reshape(m, k)
    for j in range(k):
        x_ref, mu_ref = oracles.dense_kkt_solve(A, C, b[:, j])
        stat = np.linalg.norm(A @ X[:, j] + C.T @ MU[:, j] - b[:, j])
        # the oracle's residual may differ from the kernel's by round-off
        round_off = (n + m) * np.finfo(float).eps * np.linalg.norm(
            np.abs(A) @ np.abs(X[:, j]) + np.abs(C.T) @ np.abs(MU[:, j])
            + np.abs(b[:, j]))
        assert stat <= tol * np.linalg.norm(b[:, j]) + 2 * round_off
        assert np.linalg.norm(C @ X[:, j]) <= \
            tol * max(1.0, np.linalg.norm(X[:, j]))
        # forward error of a tol-relative residual, both sides
        z = np.concatenate([X[:, j], MU[:, j]])
        z_ref = np.concatenate([x_ref, mu_ref])
        assert np.linalg.norm(z - z_ref) <= \
            4 * cond * (tol + 1e-15) * np.linalg.norm(z_ref)


def test_stack_solves_each_system_as_if_alone(rng):
    """A (P, n, n) stack gives each system the bits it gets in a stack of
    one, agrees with the sparse path, and keeps the solve's shape rules."""
    P, n, m = 4, 10, 3
    A = np.stack([random_spd(rng, n) for _ in range(P)])
    C = rng.standard_normal((P, m, n))
    b = rng.standard_normal((P, n, 2))
    fac = SaddleFactorization(A, C)
    x, mu = fac.solve(b)
    assert x.shape == (P, n, 2) and mu.shape == (P, m, 2)
    for p in range(P):
        alone, _ = SaddleFactorization(A[p:p + 1], C[p:p + 1]).solve(b[p:p + 1])
        assert np.array_equal(alone[0], x[p])
        sparse_x, _ = SaddleFactorization(csr(A[p]), csr(C[p])).solve(b[p])
        np.testing.assert_allclose(x[p], sparse_x, rtol=1e-10,
                                   atol=1e-10 * np.abs(sparse_x).max())
        assert np.linalg.norm(C[p] @ x[p]) <= 1e-10 * max(1.0, np.linalg.norm(x[p]))
    single, _ = fac.solve(b[:, :, 0])
    assert single.shape == (P, n)
    with pytest.raises(ValueError, match="shape mismatch"):
        fac.solve(b[:, 1:])
    A[2, 0, 0] = -1.0
    with pytest.raises(SolverFailure, match="matrix 2 of the stack"):
        SaddleFactorization(A, C)


def test_stack_failure_names_its_system(rng, monkeypatch):
    """A stack whose matrix 2 is not positive definite, and a stack in which
    only system 2 misses the tolerance, fail with `system` 2; a single
    system's failure has `system` None."""
    P, n, m = 4, 6, 2
    A = np.stack([random_spd(rng, n) for _ in range(P)])
    C = rng.standard_normal((P, m, n))
    b = rng.standard_normal((P, n, 3))
    indefinite = A.copy()
    indefinite[2, 0, 0] = -1.0
    with pytest.raises(SolverFailure, match="not positive definite") as failure:
        SaddleFactorization(indefinite, C)
    assert failure.value.system == 2

    def off_the_constraint(fact, system):
        apply = fact._apply

        def shifted(r, q):
            x, mu = apply(r, q)
            x[system] += 1.0
            return x, mu

        monkeypatch.setattr(fact, "_apply", shifted)
        return fact

    for fact, system, rhs in (
            (off_the_constraint(SaddleFactorization(A, C), 2), 2, b),
            (off_the_constraint(SaddleFactorization(csr(A[0]), csr(C[0])),
                                slice(None)), None, b[0])):
        with pytest.raises(SolverFailure, match="missed tolerance") as failure:
            fact.solve(rhs)
        assert failure.value.system == system
        assert failure.value.residual > 0
