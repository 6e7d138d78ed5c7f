import itertools

import numpy as np
import pytest

from lodfem import build_uniform_mesh, element_patch, refine_hierarchy

import oracles
from oracles import node_star


def brute_force_star(mesh, vertex):
    return sorted(e for e, tri in enumerate(mesh.triangles) if vertex in tri)


def test_smallest_grid_counts():
    m = build_uniform_mesh(2)
    assert m.n_vertices == 9
    assert m.n_triangles == 8
    assert m.n_interior == 1


def test_counts_against_enumeration_oracle():
    m = build_uniform_mesh(8)
    assert m.n_vertices == 81
    assert m.n_triangles == 128
    assert m.n_interior == 49
    # brute-force oracle: enumerate grid positions
    pts = {(i, j) for i in range(9) for j in range(9)}
    interior = {(i, j) for (i, j) in pts if 0 < i < 8 and 0 < j < 8}
    assert m.n_vertices == len(pts)
    assert m.n_interior == len(interior)
    assert m.n_triangles == 2 * 8 * 8


@pytest.mark.parametrize("bad", [1, 0, -3])
def test_invalid_resolution(bad):
    with pytest.raises(ValueError, match="invalid resolution"):
        build_uniform_mesh(bad)


def test_positive_areas_and_orientation():
    m = build_uniform_mesh(5)
    areas = [oracles.triangle_area(m.vertices[t]) for t in m.triangles]
    assert min(areas) > 0
    np.testing.assert_allclose(m.element_areas, areas, rtol=1e-14)


def test_edge_sharing_counts():
    m = build_uniform_mesh(4)
    edges = {}
    for tri in m.triangles:
        for a, b in itertools.combinations(sorted(tri), 2):
            edges[(a, b)] = edges.get((a, b), 0) + 1
    for (a, b), count in edges.items():
        mid = 0.5 * (m.vertices[a] + m.vertices[b])
        on_boundary = np.any(mid == 0.0) or np.any(mid == 1.0)
        assert count == (1 if on_boundary else 2), \
            f"edge {(a, b)} shared by {count} triangles"


def test_boundary_flags_match_coordinates():
    m = build_uniform_mesh(6)
    x, y = m.vertices[:, 0], m.vertices[:, 1]
    expected = (x == 0) | (x == 1) | (y == 0) | (y == 1)
    np.testing.assert_array_equal(m.boundary_flags, expected)
    # interior index is a contiguous enumeration of non-boundary vertices
    assert np.array_equal(np.flatnonzero(m.interior_index >= 0),
                          np.flatnonzero(~expected))
    assert sorted(m.interior_index[m.interior_index >= 0]) == \
        list(range(m.n_interior))


@pytest.mark.parametrize("n", [2, 3, 8, 13, 32])
def test_elimination_order_is_a_nested_dissection(n):
    """The mesh order is a permutation of the interior dofs, kept once per
    mesh, in which each rectangle of the interior lattice (the whole lattice
    first) takes a contiguous run: its two halves, then its separator, the
    middle line across its longer side (the middle column on a tie)."""
    mesh = build_uniform_mesh(n)
    order = mesh.elimination_order
    assert mesh.elimination_order is order
    np.testing.assert_array_equal(np.sort(order), np.arange(mesh.n_interior))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)

    def check(ranks):
        if ranks.size == 0:
            return
        assert ranks.max() - ranks.min() + 1 == ranks.size
        axis = 1 if ranks.shape[1] >= ranks.shape[0] else 0
        length = ranks.shape[axis]
        line = np.unravel_index(ranks.argmax(), ranks.shape)[axis]
        assert line in (length // 2, (length - 1) // 2)
        separator = np.take(ranks, line, axis=axis)
        halves = [np.take(ranks, range(line), axis=axis),
                  np.take(ranks, range(line + 1, length), axis=axis)]
        for half in halves:
            assert half.size == 0 or half.max() < separator.min()
            check(half)

    check(rank.reshape(n - 1, n - 1))


def test_mesh_size_is_max_diameter():
    m = build_uniform_mesh(8)
    diam = 0.0
    for tri in m.triangles:
        c = m.vertices[tri]
        for i, j in itertools.combinations(range(3), 2):
            diam = max(diam, float(np.linalg.norm(c[i] - c[j])))
    assert m.mesh_size == pytest.approx(diam, abs=0)
    assert m.mesh_size == pytest.approx(np.sqrt(2) / 8, rel=1e-14)


def test_node_star_interior_is_six():
    m = build_uniform_mesh(6)
    for v in m.interior_vertices:
        star = node_star(m, int(v))
        assert star.size == 6
        assert list(star) == brute_force_star(m, v)


def test_node_star_corners():
    m = build_uniform_mesh(4)
    origin = 0                       # (0, 0): the diagonal passes through it
    assert node_star(m, origin).size == 2
    off_corner = 4                   # (1, 0): opposite side of the diagonal
    assert node_star(m, off_corner).size == 1


def test_node_star_unknown_vertex():
    m = build_uniform_mesh(3)
    with pytest.raises(IndexError):
        node_star(m, m.n_vertices)


def test_star_area_identity():
    m = build_uniform_mesh(5)
    total = sum(m.element_areas[node_star(m, int(v))].sum()
                for v in range(m.n_vertices))
    assert total == pytest.approx(3.0, rel=1e-12)


def test_refine_smallest():
    h = refine_hierarchy(build_uniform_mesh(2), build_uniform_mesh(4))
    assert h.fine.n_vertices == 25
    assert h.fine.n_triangles == 32
    assert h.children.shape == (8, 4)


def test_refine_full_scale_mesh_size():
    h = refine_hierarchy(build_uniform_mesh(8), build_uniform_mesh(256))
    assert h.fine.cells_per_side == 256
    assert h.fine.mesh_size == pytest.approx(np.sqrt(2) / 256, rel=1e-14)


@pytest.mark.parametrize("coarse_n, fine_n", [(4, 4), (4, 6), (4, 12), (3, 8)])
def test_refine_rejects_fine_mesh_not_nesting_coarse(coarse_n, fine_n):
    """A fine mesh nests a coarse one only at 2^k times its cells per side,
    k >= 1."""
    with pytest.raises(ValueError, match="cannot nest"):
        refine_hierarchy(build_uniform_mesh(coarse_n), build_uniform_mesh(fine_n))


def test_refine_builds_no_mesh():
    """The hierarchy holds the fine mesh it is given."""
    coarse, fine = build_uniform_mesh(2), build_uniform_mesh(8)
    h = refine_hierarchy(coarse, fine)
    assert h.coarse is coarse and h.fine is fine
    assert h.children.shape == (8, 16)


def test_children_tile_parents():
    h = refine_hierarchy(build_uniform_mesh(4), build_uniform_mesh(16))
    child_areas = h.fine.element_areas[h.children].sum(axis=1)
    np.testing.assert_allclose(child_areas, h.coarse.element_areas, rtol=1e-12)
    # children partition the fine mesh
    assert np.array_equal(np.sort(h.children.ravel()),
                          np.arange(h.fine.n_triangles))


def embedded_ids(h, coarse_vertices):
    """Fine vertex ids at the positions of the given coarse vertices."""
    nf = h.fine.cells_per_side
    ij = np.rint(h.coarse.vertices[coarse_vertices] * nf).astype(np.int64)
    return ij[:, 1] * (nf + 1) + ij[:, 0]


def test_prolongation_center_hat_values():
    h = refine_hierarchy(build_uniform_mesh(2), build_uniform_mesh(4))
    center = 4  # vertex (0.5, 0.5), the single interior node
    col = h.prolongation.toarray()[:, 0]
    locator = oracles.PointLocator(h.coarse)
    expected = [locator.hat_value(center, p) for p in h.fine.vertices]
    np.testing.assert_allclose(col, expected, atol=1e-14)
    # value 1 at the embedded vertex, 1/2 at star edge midpoints, 0 elsewhere
    assert col[embedded_ids(h, [center])[0]] == 1.0
    assert np.count_nonzero(col == 0.5) == 6


def test_prolongation_nodal_pattern_at_embedded_vertices():
    h = refine_hierarchy(build_uniform_mesh(4), build_uniform_mesh(16))
    P = h.prolongation.toarray()
    embedded = P[embedded_ids(h, h.coarse.interior_vertices)]
    np.testing.assert_allclose(embedded, np.eye(h.coarse.n_interior), atol=0)
    boundary_rows = P[embedded_ids(h, h.coarse.boundary_flags)]
    assert np.all(boundary_rows == 0)


def test_prolongation_reproduces_linear_functions():
    h = refine_hierarchy(build_uniform_mesh(4), build_uniform_mesh(32))
    lin = lambda p: 0.25 + 2.0 * p[:, 0] - 0.75 * p[:, 1]
    coarse_vals = lin(h.coarse.vertices)
    # represent the linear function through all coarse hats: interior columns
    # plus the boundary part handled by linear combination of full evaluation
    fine_from_coarse = np.zeros(h.fine.n_vertices)
    locator = oracles.PointLocator(h.coarse)
    interior = h.coarse.interior_vertices
    P = h.prolongation.toarray()
    fine_from_coarse = P @ coarse_vals[interior]
    boundary = np.flatnonzero(h.coarse.boundary_flags)
    for b in boundary:
        hat = np.array([locator.hat_value(int(b), p) for p in h.fine.vertices])
        fine_from_coarse += coarse_vals[b] * hat
    np.testing.assert_allclose(fine_from_coarse, lin(h.fine.vertices), atol=1e-12)


def brute_force_patch(mesh, seed, order):
    elems = {seed}
    for _ in range(order):
        verts = {v for e in elems for v in mesh.triangles[e]}
        elems = {e for e, tri in enumerate(mesh.triangles)
                 if any(v in verts for v in tri)}
    return sorted(elems)


def test_patch_thirteen_elements():
    h = refine_hierarchy(build_uniform_mesh(8), build_uniform_mesh(16))
    seed = 2 * (3 * 8 + 3)  # interior lower triangle
    p = element_patch(h, seed, 1)
    assert p.coarse_elements.size == 13
    assert list(p.coarse_elements) == brute_force_patch(h.coarse, seed, 1)


def test_patch_monotone_and_saturating():
    h = refine_hierarchy(build_uniform_mesh(4), build_uniform_mesh(8))
    for seed in (0, 11, 31):
        previous = set()
        for order in range(1, 8):
            p = element_patch(h, seed, order)
            current = set(p.coarse_elements)
            assert previous <= current
            assert list(p.coarse_elements) == brute_force_patch(h.coarse, seed, order)
            previous = current
        assert previous == set(range(h.coarse.n_triangles))


def test_patch_invalid_order():
    h = refine_hierarchy(build_uniform_mesh(2), build_uniform_mesh(4))
    with pytest.raises(ValueError, match="invalid patch order"):
        element_patch(h, 0, 0)


def test_patch_interior_dofs_strictly_inside():
    h = refine_hierarchy(build_uniform_mesh(4), build_uniform_mesh(16))
    p = element_patch(h, 5, 1)
    elems = set(p.fine_elements)
    dofs = set(p.fine_interior_dofs)
    for v in range(h.fine.n_vertices):
        incident = set(node_star(h.fine, v))
        strictly_inside = incident <= elems and not h.fine.boundary_flags[v]
        assert (h.fine.interior_index[v] in dofs) == strictly_inside


def test_patch_active_nodes_are_stars_meeting_patch():
    h = refine_hierarchy(build_uniform_mesh(4), build_uniform_mesh(8))
    p = element_patch(h, 7, 1)
    patch = set(p.coarse_elements)
    expected = sorted(
        int(v) for v in h.coarse.interior_vertices
        if set(node_star(h.coarse, int(v))) & patch)
    assert list(p.active_coarse_nodes) == expected

