import numpy as np
import pytest

from lodfem import build_uniform_mesh, error_norms, linalg, make_constant, \
    make_checkerboard, pad_full, solve_reference
from lodfem.fem import apply_subset_stiffness, assemble_load, assemble_mass, \
    assemble_stiffness, build_operators, subset_h1_sq, subset_l2_sq
from lodfem.mesh import TriMesh

import oracles
from oracles import node_star


def reference_triangle_mesh():
    """One unit right triangle, used for the hand-computed local matrix."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return TriMesh(
        vertices=vertices,
        triangles=np.array([[0, 1, 2]]),
        boundary_flags=np.array([True, True, True]),
        interior_index=np.array([-1, -1, -1]),
        mesh_size=np.sqrt(2.0),
        cells_per_side=1,
    )


def test_local_stiffness_hand_values():
    mesh = reference_triangle_mesh()
    K = assemble_stiffness(mesh, None, interior=False).toarray()
    expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
    np.testing.assert_allclose(K, expected, atol=1e-15)


def test_stiffness_linear_in_coefficient():
    mesh = build_uniform_mesh(4)
    one = assemble_stiffness(mesh, make_constant(1.0, mesh))
    ten = assemble_stiffness(mesh, make_constant(10.0, mesh))
    np.testing.assert_array_equal(ten.toarray(), 10.0 * one.toarray())


def test_stiffness_against_dense_oracle():
    mesh = build_uniform_mesh(2)
    coeff = make_checkerboard(2, 10.0, 1, mesh)
    full = assemble_stiffness(mesh, coeff, interior=False).toarray()
    np.testing.assert_allclose(full, oracles.dense_stiffness(mesh, coeff.values),
                               atol=1e-12)
    interior = assemble_stiffness(mesh, coeff).toarray()
    idx = mesh.interior_vertices
    np.testing.assert_allclose(
        interior, oracles.dense_stiffness(mesh, coeff.values)[np.ix_(idx, idx)],
        atol=1e-12)


def test_stiffness_coefficient_mismatch():
    mesh = build_uniform_mesh(4)
    other = make_constant(1.0, build_uniform_mesh(8))
    with pytest.raises(ValueError, match="mismatch"):
        assemble_stiffness(mesh, other)


def test_stiffness_kernel_contains_constants():
    mesh = build_uniform_mesh(6)
    S = assemble_stiffness(mesh, None, interior=False)
    row_sums = np.asarray(S @ np.ones(mesh.n_vertices))
    assert np.abs(row_sums).max() <= 1e-12


def test_mass_against_dense_oracle():
    mesh = build_uniform_mesh(2)
    M = assemble_mass(mesh).toarray()
    np.testing.assert_allclose(M, oracles.dense_mass(mesh), atol=1e-13)


def test_mass_row_sums_are_hat_integrals():
    mesh = build_uniform_mesh(5)
    M = assemble_mass(mesh)
    row_sums = np.asarray(M @ np.ones(mesh.n_vertices))
    hat_integrals = np.array([
        mesh.element_areas[node_star(mesh, v)].sum() / 3.0
        for v in range(mesh.n_vertices)])
    np.testing.assert_allclose(row_sums, hat_integrals, atol=1e-12)


def test_load_zero():
    mesh = build_uniform_mesh(4)
    load = assemble_load(mesh, lambda x, y: np.zeros_like(x))
    assert np.all(load == 0)


def test_load_constant_gives_hat_volumes():
    mesh = build_uniform_mesh(4)
    load = assemble_load(mesh, lambda x, y: np.ones_like(x))
    expected = np.array([
        mesh.element_areas[node_star(mesh, v)].sum() / 3.0
        for v in mesh.interior_vertices])
    np.testing.assert_allclose(load, expected, atol=1e-14)


def test_load_linear_matches_degree5_oracle():
    mesh = build_uniform_mesh(4)
    load = assemble_load(mesh, lambda x, y: x)
    expected = oracles.load_7pt(mesh, lambda x, y: x)[mesh.interior_vertices]
    np.testing.assert_allclose(load, expected, atol=1e-14)


def test_solve_reference_zero_rhs():
    mesh = build_uniform_mesh(8)
    ops = build_operators(mesh, make_constant(1.0, mesh),
                          lambda x, y: np.zeros_like(x))
    assert np.all(solve_reference(mesh, ops) == 0)


def test_solve_reference_manufactured_orders():
    u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    gu = lambda x, y: (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                       np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))
    f = lambda x, y: 2 * np.pi ** 2 * u(x, y)
    errs = []
    for n in (8, 16, 32):
        mesh = build_uniform_mesh(n)
        ops = build_operators(mesh, make_constant(1.0, mesh), f)
        sol = pad_full(mesh, solve_reference(mesh, ops))
        errs.append(oracles.error_vs_function(mesh, sol, u, gu))
    l2_orders = [np.log2(a[0] / b[0]) for a, b in zip(errs, errs[1:])]
    h1_orders = [np.log2(a[1] / b[1]) for a, b in zip(errs, errs[1:])]
    assert all(abs(o - 2.0) <= 0.1 for o in l2_orders), l2_orders
    assert all(abs(o - 1.0) <= 0.1 for o in h1_orders), h1_orders


def test_solve_reference_symmetric_under_swap():
    n = 8
    mesh = build_uniform_mesh(n)
    f = lambda x, y: 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    ops = build_operators(mesh, make_constant(1.0, mesh), f)
    sol = pad_full(mesh, solve_reference(mesh, ops))
    # vertex (i, j) swaps with (j, i)
    ij = np.arange(mesh.n_vertices)
    i, j = ij % (n + 1), ij // (n + 1)
    perm = i * (n + 1) + j
    np.testing.assert_allclose(sol, sol[perm], atol=1e-10)


def test_solve_reference_factorizes_in_the_elimination_order(monkeypatch):
    """The reference solve hands SuperLU the stiffness in the mesh's
    elimination order, to be factorized in that order (NATURAL)."""
    mesh = build_uniform_mesh(8)
    ops = build_operators(mesh, make_checkerboard(4, 100.0, 2, mesh),
                          lambda x, y: x)
    splu, calls = linalg.spla.splu, []

    def recorded(matrix, **options):
        calls.append((matrix.copy(), options))
        return splu(matrix, **options)

    monkeypatch.setattr(linalg.spla, "splu", recorded)
    sol = solve_reference(mesh, ops)
    order = mesh.elimination_order
    assert not np.array_equal(order, np.arange(order.size))
    (matrix, options), = calls
    assert options["permc_spec"] == "NATURAL"
    assert (matrix != ops.stiffness_coeff[order][:, order]).nnz == 0
    residual = ops.stiffness_coeff @ sol - ops.load
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(ops.load)


def test_galerkin_orthogonality(rng):
    mesh = build_uniform_mesh(8)
    coeff = make_checkerboard(4, 100.0, 2, mesh)
    ops = build_operators(mesh, coeff, lambda x, y: x)
    sol = solve_reference(mesh, ops, tol=1e-12)
    residual = ops.stiffness_coeff @ sol - ops.load
    for _ in range(20):
        v = rng.standard_normal(mesh.n_interior)
        assert abs(residual @ v) <= 1e-10 * np.linalg.norm(v)


def test_error_norms_zero_and_symmetry(rng):
    mesh = build_uniform_mesh(6)
    ops = build_operators(mesh, make_constant(2.0, mesh), lambda x, y: x)
    u = rng.standard_normal(mesh.n_interior)
    v = rng.standard_normal(mesh.n_interior)
    assert error_norms(mesh, u, u, ops) == (0.0, 0.0, 0.0)
    np.testing.assert_allclose(error_norms(mesh, u, v, ops),
                               error_norms(mesh, v, u, ops),
                               rtol=1e-14)
    with pytest.raises(ValueError, match="shape mismatch"):
        error_norms(mesh, u, v[:-1], ops)


def test_error_norms_match_dense_quadratic_forms(rng):
    """The element sums equal the quadratic forms of the dense mass and
    stiffness oracles, plain and with the coefficient, on the interior."""
    mesh = build_uniform_mesh(6)
    coeff = make_checkerboard(6, 1e4, 3, mesh)
    ops = build_operators(mesh, coeff, lambda x, y: x)
    u = rng.standard_normal(mesh.n_interior)
    v = rng.standard_normal(mesh.n_interior)
    d = u - v
    idx = np.ix_(mesh.interior_vertices, mesh.interior_vertices)
    l2_sq = d @ oracles.dense_mass(mesh)[idx] @ d
    semi_sq = d @ oracles.dense_stiffness(mesh)[idx] @ d
    energy_sq = d @ oracles.dense_stiffness(mesh, coeff.values)[idx] @ d
    np.testing.assert_allclose(
        error_norms(mesh, u, v, ops),
        np.sqrt([l2_sq, l2_sq + semi_sq, energy_sq]), rtol=1e-12)


def test_energy_of_linear_function_exact():
    mesh = build_uniform_mesh(4)
    d = mesh.vertices[:, 0] + 2.0 * mesh.vertices[:, 1]  # grad (1, 2)
    S = assemble_stiffness(mesh, None, interior=False)
    assert d @ (S @ d) == pytest.approx(5.0, rel=1e-12)  # |grad|^2 * area
    M = assemble_mass(mesh)
    # int (x + 2y)^2 over the unit square = 1/3 + 1 + 4/3
    assert d @ (M @ d) == pytest.approx(1 / 3 + 1.0 + 4 / 3, rel=1e-12)


def test_subset_norms_match_quadrature(rng):
    mesh = build_uniform_mesh(4)
    vec = rng.standard_normal(mesh.n_vertices)
    elements = np.array([0, 3, 7, 12])
    l2_sq = 0.0
    h1_sq = 0.0
    for e in elements:
        tri = mesh.triangles[e]
        coords = mesh.vertices[tri]
        area = oracles.triangle_area(coords)
        grads = oracles.hat_gradients(coords)
        g = vec[tri] @ grads
        mids_vals = [0.5 * (vec[tri[0]] + vec[tri[1]]),
                     0.5 * (vec[tri[1]] + vec[tri[2]]),
                     0.5 * (vec[tri[2]] + vec[tri[0]])]
        l2_sq += area / 3.0 * sum(v * v for v in mids_vals)
        h1_sq += area * (g @ g)
    assert subset_l2_sq(mesh, elements, vec) == pytest.approx(l2_sq, rel=1e-12)
    assert subset_h1_sq(mesh, elements, vec) == pytest.approx(l2_sq + h1_sq,
                                                              rel=1e-12)


def test_apply_subset_stiffness_sums_to_full(rng):
    mesh = build_uniform_mesh(4)
    coeff = make_checkerboard(4, 10.0, 1, mesh)
    vec = rng.standard_normal(mesh.n_vertices)
    total = apply_subset_stiffness(mesh, coeff, np.arange(mesh.n_triangles), vec)
    S = assemble_stiffness(mesh, coeff, interior=False)
    np.testing.assert_allclose(total, S @ vec, atol=1e-12)
    part1 = apply_subset_stiffness(mesh, coeff, np.arange(10), vec)
    part2 = apply_subset_stiffness(mesh, coeff, np.arange(10, mesh.n_triangles), vec)
    np.testing.assert_allclose(part1 + part2, total, atol=1e-12)
    # an (nv, 3) block gives the single-vector results, column by column
    block = rng.standard_normal((mesh.n_vertices, 3))
    elements = np.arange(3, 25)
    out = apply_subset_stiffness(mesh, coeff, elements, block)
    assert out.shape == block.shape
    for j in range(3):
        assert np.array_equal(
            out[:, j], apply_subset_stiffness(mesh, coeff, elements, block[:, j]))
