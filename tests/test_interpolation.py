import numpy as np
import pytest
import scipy.linalg as sla

from lodfem import build_interpolation, build_uniform_mesh, refine_hierarchy

import oracles
from oracles import interior_interpolation, interpolation_denominators, \
    measure_constants, node_star


@pytest.fixture(scope="module")
def op(small_hierarchy):
    return build_interpolation(small_hierarchy)


@pytest.fixture(scope="module")
def matrix(small_hierarchy, op):
    return interior_interpolation(small_hierarchy, op)


def test_zero_maps_to_zero(small_hierarchy, matrix):
    v = np.zeros(small_hierarchy.fine.n_interior)
    assert np.all(matrix @ v == 0)


def test_rows_supported_in_node_stars(small_hierarchy, op):
    hier = small_hierarchy
    for row_idx, node in enumerate(hier.coarse.interior_vertices):
        star = node_star(hier.coarse, int(node))
        star_fine = np.unique(
            hier.fine.triangles[hier.children[star].ravel()])
        allowed = set(star_fine)
        support = op.getrow(row_idx).indices
        assert set(support) <= allowed


@pytest.mark.parametrize("fine_n, coarse_n",
                         [(16, 4), (64, 8), (64, 16), (128, 32)])
def test_full_rows_share_one_layout_about_their_node(fine_n, coarse_n):
    """Every row of the matrix stores its columns at the same lattice
    offsets from its node's fine vertex, in the same order, so that a
    patch template's ranks in its rows hold in every translate."""
    hier = refine_hierarchy(build_uniform_mesh(coarse_n),
                            int(np.log2(fine_n // coarse_n)))
    full = build_interpolation(hier)
    widths = np.diff(full.indptr)
    assert np.all(widths == widths[0])
    nodes = hier.coarse.vertices[hier.coarse.interior_vertices]
    offsets = np.rint((hier.fine.vertices[full.indices]
                       - np.repeat(nodes, widths, axis=0)) * fine_n).astype(int)
    offsets = offsets.reshape(widths.size, widths[0], 2)
    assert np.array_equal(offsets, np.broadcast_to(offsets[0], offsets.shape))


def test_constant_function_value(small_hierarchy, op):
    """Full-dof evaluation of v = 1: value is hat volume over normalization."""
    hier = small_hierarchy
    ones = np.ones(hier.fine.n_vertices)
    values = op @ ones
    P = hier.prolongation
    from lodfem.fem import assemble_mass
    hat_volumes = P.T @ (assemble_mass(hier.fine)
                         @ np.ones(hier.fine.n_vertices))
    np.testing.assert_allclose(values,
                               hat_volumes / interpolation_denominators(hier, op),
                               atol=1e-12)
    assert np.all(values < 1.0)
    assert np.all(values > 0.0)


def test_constant_value_matches_star_geometry_oracle():
    """value(1)(a) = hat volume / (hat volume + H^2 * gradient L1 norm),
    with both star integrals recomputed from coarse geometry alone."""
    deviations = []
    for nc in (4, 8, 16):
        hier = refine_hierarchy(build_uniform_mesh(nc), 2)
        op = build_interpolation(hier)
        values = op @ np.ones(hier.fine.n_vertices)
        H = hier.coarse.mesh_size
        for row_idx, node in enumerate(hier.coarse.interior_vertices):
            star = node_star(hier.coarse, int(node))
            hat_volume = hier.coarse.element_areas[star].sum() / 3.0
            grad_l1 = sum(
                hier.coarse.element_areas[e] * np.linalg.norm(
                    oracles.hat_gradient_on(hier.coarse, int(node), int(e)))
                for e in star)
            expected = hat_volume / (hat_volume + H * H * grad_l1)
            assert values[row_idx] == pytest.approx(expected, rel=1e-12)
            assert 0.0 < 1.0 - values[row_idx] <= 5.0 * H
        deviations.append(np.max(1.0 - values))
    assert deviations[0] > deviations[1] > deviations[2]


def test_matrix_rows_match_quadrature_oracle():
    hier = refine_hierarchy(build_uniform_mesh(2), 2)
    op = build_interpolation(hier)
    denominators = interpolation_denominators(hier, op)
    for row_idx, node in enumerate(hier.coarse.interior_vertices):
        row_oracle, denom_oracle = oracles.interpolation_row(hier, int(node))
        np.testing.assert_allclose(op.getrow(row_idx).toarray().ravel(),
                                   row_oracle, atol=1e-12)
        assert denominators[row_idx] == pytest.approx(denom_oracle, rel=1e-12)


def test_apply_is_linear(small_hierarchy, matrix, rng):
    u = rng.standard_normal(small_hierarchy.fine.n_interior)
    v = rng.standard_normal(small_hierarchy.fine.n_interior)
    left = matrix @ (2.0 * u - 3.0 * v)
    right = 2.0 * (matrix @ u) - 3.0 * (matrix @ v)
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_prolongated_hat_values_match_oracle(small_hierarchy, matrix):
    hier = small_hierarchy
    b = 1  # second interior coarse node
    v = hier.prolongation_interior[:, b].toarray().ravel()
    values = matrix @ v
    for row_idx, node in enumerate(hier.coarse.interior_vertices):
        row_oracle, _ = oracles.interpolation_row(hier, int(node))
        expected = row_oracle[hier.fine.interior_vertices] @ v
        assert values[row_idx] == pytest.approx(expected, abs=1e-12)


def test_kernel_vectors_map_to_zero(small_hierarchy, matrix, rng):
    C = matrix.toarray()
    Z = sla.null_space(C)
    v = Z @ rng.standard_normal(Z.shape[1])
    assert np.abs(matrix @ v).max() <= 1e-10 * max(1.0, np.linalg.norm(v))


def test_full_row_rank(small_hierarchy, matrix):
    C = matrix.toarray()
    n_ci = small_hierarchy.coarse.n_interior
    assert np.linalg.matrix_rank(C) == n_ci
    assert sla.null_space(C).shape[1] == \
        small_hierarchy.fine.n_interior - n_ci


def test_denominators_positive(small_hierarchy, op):
    assert np.all(interpolation_denominators(small_hierarchy, op) > 0)


def test_measured_constants_bounded_across_levels():
    measured = {}
    for nc in (4, 8):
        hier = refine_hierarchy(build_uniform_mesh(nc), 2)
        op = build_interpolation(hier)
        measured[nc] = measure_constants(hier, op, trials=8, seed=3)
    for i in range(2):
        ratio = measured[4][i] / measured[8][i]
        assert 0.5 <= ratio <= 2.0, (i, measured)


def test_approximation_order_for_fixed_smooth_function():
    # the O(H) regime sets in once H^2 * gradient weighting is subdominant,
    # so the order is read off the three finest coarse levels
    f = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]) \
        + 0.3 * np.sin(2 * np.pi * p[:, 0]) * np.sin(3 * np.pi * p[:, 1])
    worst = []
    for nc, k in ((8, 3), (16, 2), (32, 2)):
        hier = refine_hierarchy(build_uniform_mesh(nc), k)
        op = build_interpolation(hier)
        v = f(hier.fine.vertices)
        residual = v - hier.prolongation @ (op @ v)
        from lodfem.fem import subset_l2_sq
        worst.append(max(
            np.sqrt(subset_l2_sq(hier.fine, hier.children[kk], residual))
            for kk in range(hier.coarse.n_triangles)))
    orders = [np.log2(a / b) for a, b in zip(worst, worst[1:])]
    assert all(o >= 0.9 for o in orders), orders


def test_measure_constants_rejects_no_trials(small_hierarchy, op):
    with pytest.raises(ValueError):
        measure_constants(small_hierarchy, op, trials=0)
