"""Nested two-level triangulations of the unit square.

Structured P1 meshes: every grid square is split along the same lower-left
to upper-right diagonal, and the fine mesh is obtained from the coarse one
by uniform red (1:4) refinement, which for this layout coincides with the
uniform grid at doubled resolution.  All mesh data is immutable after
construction, so concurrent read access from parallel solves is safe.

Vertex ids run row-major in y, ``v = j*(n+1) + i`` for grid point (i/n, j/n).
Each grid square (ix, iy) contributes two triangles: the lower one
``2*(iy*n+ix)`` with vertices (v00, v10, v11) and the upper one
``2*(iy*n+ix)+1`` with vertices (v00, v11, v01), both counter-clockwise.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sparse


@dataclass(eq=False)
class TriMesh:
    """Conforming triangulation of the unit square with Dirichlet dof map."""

    vertices: np.ndarray        # (nv, 2) float
    triangles: np.ndarray       # (nt, 3) int, counter-clockwise
    boundary_flags: np.ndarray  # (nv,) bool, True on the domain boundary
    interior_index: np.ndarray  # (nv,) int, contiguous interior dof or -1
    mesh_size: float            # max element diameter
    cells_per_side: int

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def n_interior(self):
        return self.interior_vertices.size

    @cached_property
    def interior_vertices(self):
        """Vertex ids of interior dofs, ascending (dof k -> vertex id)."""
        return np.flatnonzero(~self.boundary_flags)

    @cached_property
    def element_areas(self):
        v = self.vertices[self.triangles]
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

    @cached_property
    def element_gradients(self):
        """Constant P1 basis gradients per element: arrays (gx, gy), (nt, 3)."""
        v = self.vertices[self.triangles]
        x, y = v[:, :, 0], v[:, :, 1]
        det = 2.0 * self.element_areas
        gx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
        gy = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
        return gx / det[:, None], gy / det[:, None]

    @cached_property
    def element_centroids(self):
        return self.vertices[self.triangles].mean(axis=1)

    @cached_property
    def vertex_element_count(self):
        return np.bincount(self.triangles.ravel(), minlength=self.n_vertices)

    @cached_property
    def _vertex_to_elements(self):
        """CSR-style (offsets, elems): elements incident to each vertex, sorted."""
        tri = self.triangles
        elems = np.repeat(np.arange(self.n_triangles), 3)
        order = np.argsort(tri.ravel(), kind="stable")
        offsets = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.cumsum(self.vertex_element_count, out=offsets[1:])
        return offsets, elems[order]

    @cached_property
    def element_adjacency(self):
        """Boolean element-to-element adjacency through shared vertices."""
        nt, nv = self.n_triangles, self.n_vertices
        rows = np.repeat(np.arange(nt), 3)
        incidence = sparse.csr_matrix(
            (np.ones(3 * nt, dtype=bool), (rows, self.triangles.ravel())),
            shape=(nt, nv),
        )
        return (incidence @ incidence.T).astype(bool)


@dataclass(eq=False)
class MeshHierarchy:
    """Coarse mesh nested inside a fine mesh via uniform red refinements."""

    coarse: TriMesh
    fine: TriMesh
    children: np.ndarray      # (nt_coarse, 4**k) fine element ids, k refinements
    prolongation: sparse.csr_matrix  # (nv_fine, n_coarse_interior)

    @cached_property
    def prolongation_interior(self):
        """Prolongation restricted to fine interior dof rows."""
        return self.prolongation[self.fine.interior_vertices].tocsr()


@dataclass(eq=False)
class Patch:
    """l-th order vertex-adjacency neighborhood of a coarse element."""

    coarse_elements: np.ndarray     # sorted coarse element ids
    fine_elements: np.ndarray       # sorted fine element ids covering the patch
    fine_interior_dofs: np.ndarray  # fine interior dof indices strictly inside
    active_coarse_nodes: np.ndarray  # interior coarse vertex ids with star overlap


def build_uniform_mesh(n):
    """Uniform triangulation of [0,1]^2 with n cells per side.

    Produces (n+1)^2 vertices and 2*n^2 triangles; every square is split
    along its lower-left to upper-right diagonal.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"invalid resolution: need integer n >= 2, got {n!r}")
    n = int(n)
    side = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ix, iy = ix.ravel(), iy.ravel()
    v00 = iy * (n + 1) + ix
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    x, y = vertices[:, 0], vertices[:, 1]
    boundary = (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)
    interior_index = np.full(vertices.shape[0], -1, dtype=np.int64)
    interior_index[~boundary] = np.arange(np.count_nonzero(~boundary))

    corners = vertices[triangles]
    edges = np.linalg.norm(corners - np.roll(corners, -1, axis=1), axis=2)
    mesh_size = float(edges.max())

    return TriMesh(
        vertices=vertices,
        triangles=triangles,
        boundary_flags=boundary,
        interior_index=interior_index,
        mesh_size=mesh_size,
        cells_per_side=n,
    )


def node_star(mesh, a):
    """Element ids of all triangles having vertex a (the star of a)."""
    if not isinstance(a, (int, np.integer)) or a < 0 or a >= mesh.n_vertices:
        raise IndexError(f"vertex {a!r} not in mesh with {mesh.n_vertices} vertices")
    offsets, elems = mesh._vertex_to_elements
    return np.sort(elems[offsets[a]:offsets[a + 1]])


def _locate_coarse_elements(coarse, points):
    """Coarse element of each point (the lower one on a square's diagonal)
    and the point's offsets (fx, fy) in [0, 1] within its grid square."""
    nc = coarse.cells_per_side
    ix = np.clip(np.floor(points[:, 0] * nc).astype(np.int64), 0, nc - 1)
    iy = np.clip(np.floor(points[:, 1] * nc).astype(np.int64), 0, nc - 1)
    fx = points[:, 0] * nc - ix
    fy = points[:, 1] * nc - iy
    upper = fy > fx
    return 2 * (iy * nc + ix) + upper.astype(np.int64), fx, fy


def refine_hierarchy(coarse, levels):
    """Refine `coarse` by `levels` uniform red refinements.

    The children map ties each coarse element to the fine elements tiling it,
    and the prolongation represents every interior coarse hat function
    exactly in the fine P1 space (one column per coarse interior dof).
    """
    if not isinstance(levels, (int, np.integer)) or levels < 1:
        raise ValueError(f"invalid refinement level: need integer k >= 1, got {levels!r}")
    levels = int(levels)
    fine = build_uniform_mesh(coarse.cells_per_side * 2 ** levels)

    owner, _, _ = _locate_coarse_elements(coarse, fine.element_centroids)
    order = np.argsort(owner, kind="stable")
    per = 4 ** levels
    counts = np.bincount(owner, minlength=coarse.n_triangles)
    if not np.all(counts == per):
        raise RuntimeError("refinement bookkeeping failed: uneven child counts")
    children = np.sort(order.reshape(coarse.n_triangles, per), axis=1)

    return MeshHierarchy(
        coarse=coarse,
        fine=fine,
        children=children,
        prolongation=_build_prolongation(coarse, fine),
    )


def _build_prolongation(coarse, fine):
    """Evaluate every interior coarse hat at the fine vertices (exact)."""
    element, fx, fy = _locate_coarse_elements(coarse, fine.vertices)
    # barycentric weights in the vertex order of the lower and upper triangle
    weights = np.where((fy <= fx)[:, None],
                       np.column_stack([1.0 - fx, fx - fy, fy]),
                       np.column_stack([1.0 - fy, fx, fy - fx]))

    rows = np.repeat(np.arange(fine.n_vertices), 3)
    full = sparse.csr_matrix(
        (weights.ravel(), (rows, coarse.triangles[element].ravel())),
        shape=(fine.n_vertices, coarse.n_vertices),
    )
    full.eliminate_zeros()
    return full[:, coarse.interior_vertices].tocsr()


def element_patch(hierarchy, element, order):
    """l-th order element patch: iterated vertex-adjacency closure of {K}."""
    coarse = hierarchy.coarse
    fine = hierarchy.fine
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"invalid patch order: need integer l >= 1, got {order!r}")
    if element < 0 or element >= coarse.n_triangles:
        raise IndexError(f"coarse element {element} out of range")

    adj = coarse.element_adjacency
    mask = np.zeros(coarse.n_triangles, dtype=bool)
    mask[element] = True
    for _ in range(int(order)):
        mask = adj @ mask
    coarse_elements = np.flatnonzero(mask)

    fine_elements = np.sort(hierarchy.children[coarse_elements].ravel())
    patch_count = np.bincount(fine.triangles[fine_elements].ravel(),
                              minlength=fine.n_vertices)
    inside = (patch_count == fine.vertex_element_count) & ~fine.boundary_flags
    fine_interior_dofs = fine.interior_index[np.flatnonzero(inside)]
    if fine_interior_dofs.size == 0:
        raise ValueError(f"degenerate patch: element {element} at order {order} "
                         "has no interior fine dofs")

    patch_vertices = np.unique(coarse.triangles[coarse_elements])
    active = patch_vertices[~coarse.boundary_flags[patch_vertices]]
    return Patch(
        coarse_elements=coarse_elements,
        fine_elements=fine_elements,
        fine_interior_dofs=fine_interior_dofs,
        active_coarse_nodes=active,
    )
