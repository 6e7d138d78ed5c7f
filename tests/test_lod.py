import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st

from lodfem import fem, lod
from lodfem import SolverFailure, build_interpolation, \
    build_multiscale_space, build_uniform_mesh, build_operators, \
    element_patch, error_norms, make_checkerboard, make_constant, \
    measure_corrector_decay, refine_hierarchy, solve_multiscale, \
    solve_reference
from lodfem.lod import CorrectorSet, MultiscaleSpace, assemble_corrector_set

from oracles import fit_decay, global_corrector, node_star


def saturation_order(hier):
    """Smallest patch order at which every patch covers the whole mesh."""
    nt = hier.coarse.n_triangles
    for order in range(1, 20):
        if all(element_patch(hier, k, order).coarse_elements.size == nt
               for k in range(nt)):
            return order
    raise AssertionError("no saturating order found")


@pytest.fixture(scope="module")
def problem(small_hierarchy):
    hier = small_hierarchy
    coeff = make_checkerboard(4, 100.0, 1, hier.fine)
    ops = build_operators(hier.fine, coeff, lambda x, y: x)
    interp = build_interpolation(hier)
    return hier, ops, interp


@pytest.fixture(scope="module")
def kernel_basis(problem):
    _, _, interp = problem
    return sla.null_space(interp.matrix.toarray())


def energy(ops, v):
    return float(np.sqrt(max(v @ (ops.stiffness_coeff @ v), 0.0)))


def element_contribution(hier, ops, interp, node, element, order):
    """Fine interior vector of `node`'s contribution from `element`'s patch,
    solved on its own."""
    solver = lod._PatchSolver(hier, ops, interp, order, 1e-10)
    (stack,) = solver.stacks(np.array([element]))
    ((_, nodes, dofs, x),) = solver.solve(stack)
    column = list(nodes).index(hier.coarse.interior_index[node])
    out = np.zeros(hier.fine.n_interior)
    out[dofs] = x[:, column]
    return out


def test_global_corrector_orthogonal_to_kernel(problem, kernel_basis, rng):
    hier, ops, interp = problem
    for node in hier.coarse.interior_vertices:
        phi = global_corrector(hier, ops, interp, int(node))
        dof = hier.coarse.interior_index[node]
        hat = hier.prolongation_interior[:, dof].toarray().ravel()
        residual = ops.stiffness_coeff @ (hat - phi)
        for _ in range(10):
            w = kernel_basis @ rng.standard_normal(kernel_basis.shape[1])
            w /= np.linalg.norm(w)
            assert abs(residual @ w) <= 1e-8


def test_global_corrector_deterministic(problem):
    hier, ops, interp = problem
    node = int(hier.coarse.interior_vertices[0])
    a = global_corrector(hier, ops, interp, node)
    b = global_corrector(hier, ops, interp, node)
    assert np.array_equal(a, b)


def test_global_corrector_energy_optimality(problem, kernel_basis, rng):
    hier, ops, interp = problem
    node = int(hier.coarse.interior_vertices[4])
    dof = hier.coarse.interior_index[node]
    hat = hier.prolongation_interior[:, dof].toarray().ravel()
    phi = global_corrector(hier, ops, interp, node)
    best = energy(ops, phi - hat)
    for _ in range(10):
        v = kernel_basis @ rng.standard_normal(kernel_basis.shape[1])
        assert energy(ops, v - hat) >= best - 1e-8


def test_corrector_nonzero_for_constant_coefficient(small_hierarchy):
    hier = small_hierarchy
    ops = build_operators(hier.fine, make_constant(1.0, hier.fine),
                          lambda x, y: x)
    interp = build_interpolation(hier)
    node = int(hier.coarse.interior_vertices[0])
    phi = global_corrector(hier, ops, interp, node)
    assert energy(ops, phi) > 1e-3


def test_corrector_set_satisfies_constraints(problem):
    hier, ops, interp = problem
    for order in (None, 2):
        cs = assemble_corrector_set(hier, ops, interp, order=order)
        for i in range(cs.matrix.shape[0]):
            phi = cs.matrix.getrow(i).toarray().ravel()
            assert np.linalg.norm(interp.matrix @ phi) <= 1e-9


def test_local_corrector_supported_in_patch(problem):
    hier, ops, interp = problem
    node = int(hier.coarse.interior_vertices[0])
    element = int(node_star(hier.coarse, node)[0])
    patch = element_patch(hier, element, 1)
    phi = element_contribution(hier, ops, interp, node, element, 1)
    outside = np.setdiff1d(np.arange(hier.fine.n_interior),
                           patch.fine_interior_dofs)
    assert np.all(phi[outside] == 0.0)
    assert np.any(phi != 0.0)


def test_local_correctors_sum_to_global_at_saturation(problem):
    hier, ops, interp = problem
    l_sat = saturation_order(hier)
    for node in hier.coarse.interior_vertices[:3]:
        node = int(node)
        total = np.zeros(hier.fine.n_interior)
        for element in node_star(hier.coarse, node):
            total += element_contribution(hier, ops, interp, node,
                                          int(element), l_sat)
        phi = global_corrector(hier, ops, interp, node)
        assert energy(ops, total - phi) <= 1e-8


def test_assemble_matches_manual_star_sums(problem):
    hier, ops, interp = problem
    cs = assemble_corrector_set(hier, ops, interp, order=1)
    node = int(hier.coarse.interior_vertices[4])
    star = node_star(hier.coarse, node)
    assert star.size == 6
    manual = np.zeros(hier.fine.n_interior)
    for element in star:
        manual += element_contribution(hier, ops, interp, node, int(element), 1)
    row = cs.matrix.getrow(hier.coarse.interior_index[node]).toarray().ravel()
    np.testing.assert_array_equal(row, manual)


def test_localized_truncation_decreases_with_order(problem):
    hier, ops, interp = problem
    gs = assemble_corrector_set(hier, ops, interp, order=None)
    errors = []
    for order in (1, 2, 3):
        ls = assemble_corrector_set(hier, ops, interp, order=order)
        diff = (gs.matrix - ls.matrix).toarray()
        errors.append(max(energy(ops, diff[i]) for i in range(diff.shape[0])))
    assert errors[0] >= errors[1] >= errors[2]


def test_threaded_assembly_bit_identical(problem):
    hier, ops, interp = problem
    serial = assemble_corrector_set(hier, ops, interp, order=2, threads=1)
    threaded = assemble_corrector_set(hier, ops, interp, order=2, threads=4)
    assert (serial.matrix != threaded.matrix).nnz == 0


@settings(max_examples=20)
@given(order=st.integers(1, 3), log_contrast=st.floats(0.0, 8.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_localized_correctors_in_kernel_and_thread_independent(
        problem, order, log_contrast, seed):
    """Over random contrasts up to 1e8: every localized corrector lies in the
    kernel of the quasi-interpolation, and the assembled matrix does not
    depend on the thread count, bit for bit."""
    hier, _, interp = problem
    coeff = make_checkerboard(16, 10.0 ** log_contrast, seed, hier.fine)
    ops = build_operators(hier.fine, coeff, lambda x, y: x)
    serial, threaded = (
        assemble_corrector_set(hier, ops, interp, order=order,
                               threads=threads).matrix
        for threads in (1, 2))
    phi = serial.toarray()
    assert np.all(np.linalg.norm(phi @ interp.matrix.T.toarray(), axis=1)
                  <= 1e-8 * np.linalg.norm(phi, axis=1))
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(serial, name), getattr(threaded, name))


def test_multiscale_zero_rhs(problem):
    hier, ops, interp = problem
    zero_ops = build_operators(hier.fine, ops.coeff,
                               lambda x, y: np.zeros_like(x))
    cs = assemble_corrector_set(hier, zero_ops, interp, order=None)
    space = build_multiscale_space(hier, zero_ops, cs)
    coeffs, fine = solve_multiscale(space)
    assert np.all(coeffs == 0) and np.all(fine == 0)


def test_multiscale_galerkin_residual(problem):
    hier, ops, interp = problem
    cs = assemble_corrector_set(hier, ops, interp, order=None)
    space = build_multiscale_space(hier, ops, cs)
    coeffs, fine = solve_multiscale(space)
    residual = space.gram @ coeffs - space.load
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(space.load)
    # restated: (f, b_a) - a(u_ms, b_a) vanishes for every basis function
    per_basis = space.basis.T @ (ops.load - ops.stiffness_coeff @ fine)
    assert np.abs(per_basis).max() <= 1e-10


def test_orthogonal_splitting(problem, rng):
    hier, ops, interp = problem
    cs = assemble_corrector_set(hier, ops, interp, order=None)
    space = build_multiscale_space(hier, ops, cs)
    P = hier.prolongation_interior
    C = interp.matrix
    coarse_map = (C @ P).toarray()
    for _ in range(5):
        v = rng.standard_normal(hier.fine.n_interior)
        c = np.linalg.solve(coarse_map, C @ v)
        v_ms = space.basis @ c
        v_f = v - v_ms
        assert np.linalg.norm(C @ v_f) <= 1e-8 * max(1, np.linalg.norm(v_f))
        a_cross = abs(v_ms @ (ops.stiffness_coeff @ v_f))
        assert a_cross <= 1e-8 * max(1e-12, energy(ops, v_ms) * energy(ops, v_f))


def test_localized_solution_converges_to_global(problem):
    hier, ops, interp = problem
    gs = assemble_corrector_set(hier, ops, interp, order=None)
    _, u_global = solve_multiscale(build_multiscale_space(hier, ops, gs))
    l_sat = saturation_order(hier)
    dist = []
    for order in (1, l_sat):
        ls = assemble_corrector_set(hier, ops, interp, order=order)
        _, u_loc = solve_multiscale(build_multiscale_space(hier, ops, ls))
        dist.append(energy(ops, u_loc - u_global))
    assert dist[-1] <= 1e-8
    assert dist[0] > dist[-1]


def test_petrov_galerkin_with_global_correctors(problem):
    # with global correctors a(b_a, hat_b) = a(b_a, b_b) exactly, so the two
    # coarse systems share their matrix and differ only through the load
    hier, ops, interp = problem
    cs = assemble_corrector_set(hier, ops, interp, order=None)
    space = build_multiscale_space(hier, ops, cs)
    np.testing.assert_allclose(space.gram_pg.toarray(), space.gram.toarray(),
                               atol=1e-10)
    c_pg, u_pg = solve_multiscale(space, "petrov_galerkin")
    residual = space.gram_pg @ c_pg - space.load_pg
    assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(space.load_pg)
    # both variants approximate the same fine solution to first order
    u_ref = solve_reference(ops)
    _, u_g = solve_multiscale(space, "galerkin")
    err_pg = error_norms(u_pg, u_ref, ops)[1]
    err_g = error_norms(u_g, u_ref, ops)[1]
    assert err_pg <= 2.0 * err_g


def test_multiscale_convergence_with_global_correctors():
    fine = build_uniform_mesh(32)
    coeff = make_checkerboard(8, 100.0, 1, fine)
    ops = build_operators(fine, coeff, lambda x, y: x)
    u_ref = solve_reference(ops)
    errors = []
    for nc in (4, 8):
        hier = refine_hierarchy(build_uniform_mesh(nc),
                                int(np.log2(32 // nc)))
        interp = build_interpolation(hier)
        cs = assemble_corrector_set(hier, ops, interp, order=None)
        _, u_ms = solve_multiscale(build_multiscale_space(hier, ops, cs))
        errors.append(error_norms(u_ms, u_ref, ops)[1])
    assert np.log2(errors[0] / errors[1]) >= 0.9


def test_localized_correctors_vanish_outside_patch_union(problem):
    hier, ops, interp = problem
    cs = assemble_corrector_set(hier, ops, interp, order=1)
    for node in hier.coarse.interior_vertices:
        allowed = set()
        for element in node_star(hier.coarse, int(node)):
            allowed |= set(element_patch(hier, int(element), 1).fine_interior_dofs)
        row = cs.matrix.getrow(hier.coarse.interior_index[node])
        assert set(row.indices) <= allowed


def test_every_patch_has_active_nodes(problem):
    hier, _, _ = problem
    for element in range(hier.coarse.n_triangles):
        patch = element_patch(hier, element, 1)
        assert patch.active_coarse_nodes.size >= 1


def test_decay_tails(problem):
    hier, ops, interp = problem
    center = 2 * 5 + 2  # coarse vertex (0.5, 0.5) on the 4-grid
    phi = global_corrector(hier, ops, interp, center)
    radii = [0.25, 0.5, 0.75, 1.5]
    tails = measure_corrector_decay(hier, center, phi, radii)
    values = [t for _, t in tails]
    assert values[0] > 0
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0  # radius beyond the domain diameter


def test_decay_radii_validation(problem):
    hier, ops, interp = problem
    center = 2 * 5 + 2
    phi = np.zeros(hier.fine.n_interior)
    with pytest.raises(ValueError, match="increasing"):
        measure_corrector_decay(hier, center, phi, [0.5, 0.5])


def test_decay_fit_on_checkerboard():
    fine = build_uniform_mesh(32)
    coeff = make_checkerboard(8, 1000.0, 1, fine)
    ops = build_operators(fine, coeff, lambda x, y: x)
    hier = refine_hierarchy(build_uniform_mesh(8), 2)
    interp = build_interpolation(hier)
    center = 4 * 9 + 4
    phi = global_corrector(hier, ops, interp, center)
    radii = [m / 8 for m in (2, 3, 4, 5)]
    tails = measure_corrector_decay(hier, center, phi, radii)
    slope, r2 = fit_decay([r for r, _ in tails], [t for _, t in tails], 1 / 8)
    assert slope < -0.1
    assert r2 >= 0.9


def test_fit_decay_drops_zero_tails():
    slope, r2 = fit_decay([1, 2, 3, 4], [1.0, 0.1, 0.01, 0.0], 1.0)
    assert slope == pytest.approx(np.log(0.1), rel=1e-12)
    assert r2 == pytest.approx(1.0)
    with pytest.raises(ValueError, match="positive tails"):
        fit_decay([1, 2, 3], [1.0, 0.5, 0.0], 1.0)


def test_singular_petrov_galerkin_system_is_a_solver_failure():
    identity = sparse.identity(3, format="csr")
    space = MultiscaleSpace(
        basis=identity, gram=identity,
        gram_pg=sparse.csr_matrix([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0],
                                   [0.0, 0.0, 1.0]]),
        load=np.ones(3), load_pg=np.ones(3))
    with pytest.raises(SolverFailure):
        solve_multiscale(space, "petrov_galerkin")


def test_zero_corrector_set_is_plain_coarse_fem(problem):
    hier, ops, interp = problem
    zero = CorrectorSet(sparse.csr_matrix((hier.coarse.n_interior,
                                           hier.fine.n_interior)))
    space = build_multiscale_space(hier, ops, zero)
    coeffs, _ = solve_multiscale(space)
    P = hier.prolongation_interior
    S_c = (P.T @ ops.stiffness_coeff @ P).toarray()
    expected = np.linalg.solve(S_c, P.T @ ops.load)
    np.testing.assert_allclose(coeffs, expected, atol=1e-9)


@pytest.mark.parametrize("coarse_n", [4, 8, 16])
@pytest.mark.parametrize("refinements", [1, 2])
def test_patch_templates_match_element_patch(coarse_n, refinements):
    """For every element, at orders 1 to 3: the dofs, constraint rows and
    element nodes of its translated class template, and its gathered blocks,
    equal what element_patch and scipy fancy indexing give; its right-hand
    side equals the hats' stiffness on its children.  The constraint block
    of each class has full row rank."""
    hier = refine_hierarchy(build_uniform_mesh(coarse_n), refinements)
    coarse, fine = hier.coarse, hier.fine
    coeff = make_checkerboard(fine.cells_per_side, 1e4, 3, fine)
    ops = build_operators(fine, coeff, lambda x, y: x)
    interp = build_interpolation(hier)
    seeds = np.flatnonzero((coarse.interior_index[coarse.triangles] >= 0).any(axis=1))
    for order in (1, 2, 3):
        solver = lod._PatchSolver(hier, ops, interp, order, 1e-10)
        checked = 0
        for stack in solver.stacks(seeds):
            t, members = stack
            dofs, rows, nodes, a, c, rhs = solver.gather(stack)
            # full row rank, so that the Schur complement is SPD
            sigma = np.linalg.svd(t.C.matrix(c[0]).toarray(), compute_uv=False)
            assert sigma.min() >= 1e-3 * sigma.max()
            for p, element in enumerate(members):
                patch = element_patch(hier, int(element), order)
                np.testing.assert_array_equal(dofs[p], patch.fine_interior_dofs)
                C = interp.matrix[coarse.interior_index[
                    patch.active_coarse_nodes]][:, dofs[p]]
                active = coarse.interior_index[patch.active_coarse_nodes]
                np.testing.assert_array_equal(
                    rows[p], active[np.diff(C.indptr) > 0])
                C = C[np.flatnonzero(np.diff(C.indptr))]
                A = ops.stiffness_coeff[dofs[p]][:, dofs[p]]
                for expected, got in ((A, t.A.matrix(a[p])), (C, t.C.matrix(c[p]))):
                    for name in ("indptr", "indices", "data"):
                        np.testing.assert_array_equal(getattr(got, name),
                                                      getattr(expected, name))
                corners = coarse.interior_index[coarse.triangles[element]]
                np.testing.assert_array_equal(nodes[p], np.sort(corners[corners >= 0]))
                hats = hier.prolongation[:, nodes[p]].toarray()
                b = fem.apply_subset_stiffness(fine, coeff, hier.children[element],
                                               hats)[fine.interior_vertices[dofs[p]]]
                np.testing.assert_allclose(rhs[p], b, rtol=1e-13,
                                           atol=1e-13 * np.abs(b).max())
                checked += 1
        assert checked == seeds.size


@settings(max_examples=10)
@given(order=st.integers(1, 3), log_contrast=st.floats(0.0, 8.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dense_stacks_agree_with_superlu(problem, order, log_contrast, seed):
    """Over random contrasts up to 1e8, the dense stacks and SuperLU give
    the same corrector matrix to 1e-10 relative, patch for patch."""
    hier, _, interp = problem
    assert hier.fine.n_interior <= lod._DENSE_MAX_DOFS  # every patch is dense
    coeff = make_checkerboard(16, 10.0 ** log_contrast, seed, hier.fine)
    ops = build_operators(hier.fine, coeff, lambda x, y: x)
    dense = assemble_corrector_set(hier, ops, interp, order=order).matrix
    with mock.patch.object(lod, "_DENSE_MAX_DOFS", 0):
        superlu = assemble_corrector_set(hier, ops, interp, order=order).matrix
    assert abs(dense - superlu).max() <= 1e-10 * abs(superlu).max()


def test_rejected_stack_names_the_element(problem):
    """A tolerance no solve can meet fails the first stack, whose failure
    names the element of its first failing patch."""
    hier, ops, interp = problem
    with pytest.raises(SolverFailure,
                       match=r"corrector patch of element \d+: solve missed"):
        assemble_corrector_set(hier, ops, interp, order=1, tol=1e-30)


def test_failing_later_member_names_its_element(monkeypatch):
    """A dense stack whose third member's patch stiffness is not positive
    definite fails, and the failure names that member's element."""
    hier = refine_hierarchy(build_uniform_mesh(8), 1)
    ops = build_operators(hier.fine, make_checkerboard(16, 100.0, 1, hier.fine),
                          lambda x, y: x)
    interp = build_interpolation(hier)
    gather, failing = lod._PatchSolver.gather, []

    def third_member_negated(self, stack):
        dofs, rows, nodes, a, c, rhs = gather(self, stack)
        t, members = stack
        if not failing and members.size >= 3:
            assert t.dofs.size <= lod._DENSE_MAX_DOFS
            failing.append(members[2])
            a[2] = -a[2]
        return dofs, rows, nodes, a, c, rhs

    monkeypatch.setattr(lod._PatchSolver, "gather", third_member_negated)
    with pytest.raises(SolverFailure, match="not positive definite") as failure:
        assemble_corrector_set(hier, ops, interp, order=1)
    assert str(failure.value).startswith(
        f"corrector patch of element {failing[0]}: ")


def test_dense_coarse_products_match_sparse(problem):
    """With the global correctors SB is dense; B'SB from its dense copy
    agrees with the sparse product to 1e-13 relative, and P'SB equals it."""
    hier, ops, interp = problem
    cs = assemble_corrector_set(hier, ops, interp, order=None)
    space = build_multiscale_space(hier, ops, cs)
    P = hier.prolongation_interior
    B = (P - cs.matrix.T).tocsr()
    SB = ops.stiffness_coeff @ B
    assert SB.nnz >= lod._DENSE_PRODUCT_DENSITY * np.prod(SB.shape)
    gram, expected = space.gram.toarray(), (B.T @ SB).toarray()
    assert np.abs(gram - expected).max() <= 1e-13 * np.abs(expected).max()
    assert np.array_equal(space.gram_pg.toarray(), (P.T @ SB).toarray())


def test_global_csr_is_the_merge_of_its_dense_block(problem):
    """The global corrector matrix is built straight from the dense solve,
    row i from column i, and equals _merge of that block in every CSR
    array, with exact zeros dropped."""
    hier, ops, interp = problem
    shape = (hier.coarse.n_interior, hier.fine.n_interior)
    X = lod._global_correctors(hier, ops, interp, np.arange(shape[0]), 1e-10,
                               "global correctors")
    matrix = assemble_corrector_set(hier, ops, interp, order=None).matrix
    merged = lod._merge([(np.arange(shape[0]), np.arange(shape[1]), X)], shape)
    X[[5, 40], [2, 3]] = 0.0, -0.0
    direct = lod._column_rows(X)
    assert direct.nnz == merged.nnz - 2
    for got, expected in ((matrix, merged), (direct, lod._merge(
            [(np.arange(shape[0]), np.arange(shape[1]), X)], shape))):
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(expected, name))


@pytest.mark.parametrize("coarse_n", [8, 16])
def test_global_space_memory_peak(coarse_n):
    """Global correctors and their multiscale space hold at most four dense
    n_fine_interior x n_coarse_interior arrays' worth of memory at once."""
    hier = refine_hierarchy(build_uniform_mesh(coarse_n),
                            int(np.log2(64 // coarse_n)))
    ops = build_operators(hier.fine, make_checkerboard(64, 20.0, 10, hier.fine),
                          lambda x, y: x)
    interp = build_interpolation(hier)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        cs = assemble_corrector_set(hier, ops, interp, order=None)
        build_multiscale_space(hier, ops, cs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 4.0 * 8 * hier.fine.n_interior * hier.coarse.n_interior


@settings(max_examples=10)
@given(fine_n=st.sampled_from([16, 32]), coarse_n=st.sampled_from([4, 8]),
       order=st.sampled_from([None, 1, 2, 3]), log_contrast=st.floats(0.0, 6.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_coarse_galerkin_matrix_is_spd(fine_n, coarse_n, order, log_contrast,
                                       seed):
    """Over contrasts up to 1e6, global and localized correctors: the coarse
    Galerkin matrix is symmetric to 1e-12 relative and has a Cholesky
    factor."""
    hier = refine_hierarchy(build_uniform_mesh(coarse_n),
                            int(np.log2(fine_n // coarse_n)))
    coeff = make_checkerboard(fine_n, 10.0 ** log_contrast, seed, hier.fine)
    ops = build_operators(hier.fine, coeff, lambda x, y: x)
    cs = assemble_corrector_set(hier, ops, build_interpolation(hier),
                                order=order)
    gram = build_multiscale_space(hier, ops, cs).gram.toarray()
    assert np.abs(gram - gram.T).max() <= 1e-12 * np.abs(gram).max()
    np.linalg.cholesky(gram)
