"""Independent brute-force oracles and test-side measurements.

The oracles recompute quantities from first principles (plane fits for
gradients, pointwise quadrature, dense linear algebra) without touching the
package's assembly routines, so matches against these values are meaningful.
The measurements at the end (a single global corrector, node stars,
empirical interpolation constants, decay-rate fits) are analysis helpers that
only the tests use.
"""

import numpy as np

from lodfem import fem, lod

# Degree-5 Gauss rule on the reference triangle (barycentric points, weights
# summing to 1).
_G7_BARY = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [0.059715871789770, 0.470142064105115, 0.470142064105115],
    [0.470142064105115, 0.059715871789770, 0.470142064105115],
    [0.470142064105115, 0.470142064105115, 0.059715871789770],
    [0.797426985353087, 0.101286507323456, 0.101286507323456],
    [0.101286507323456, 0.797426985353087, 0.101286507323456],
    [0.101286507323456, 0.101286507323456, 0.797426985353087],
])
_G7_W = np.array([0.225,
                  0.132394152788506, 0.132394152788506, 0.132394152788506,
                  0.125939180544827, 0.125939180544827, 0.125939180544827])


def triangle_area(coords):
    (x0, y0), (x1, y1), (x2, y2) = coords
    return 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))


def hat_gradients(coords):
    """Gradients of the three P1 basis functions via a plane fit."""
    A = np.column_stack([np.ones(3), coords])
    grads = np.zeros((3, 2))
    for i in range(3):
        c = np.linalg.solve(A, np.eye(3)[i])
        grads[i] = c[1:]
    return grads


def dense_stiffness(mesh, coeff_values=None):
    """Element-loop dense assembly with plane-fit gradients (full dof set)."""
    n = mesh.n_vertices
    K = np.zeros((n, n))
    for e, tri in enumerate(mesh.triangles):
        coords = mesh.vertices[tri]
        area = triangle_area(coords)
        grads = hat_gradients(coords)
        a_e = 1.0 if coeff_values is None else coeff_values[e]
        for i in range(3):
            for j in range(3):
                K[tri[i], tri[j]] += a_e * area * grads[i] @ grads[j]
    return K


def dense_mass(mesh):
    """Dense mass matrix via the degree-5 quadrature rule."""
    n = mesh.n_vertices
    M = np.zeros((n, n))
    for tri in mesh.triangles:
        coords = mesh.vertices[tri]
        area = triangle_area(coords)
        for lam, w in zip(_G7_BARY, _G7_W):
            for i in range(3):
                for j in range(3):
                    M[tri[i], tri[j]] += w * area * lam[i] * lam[j]
    return M


def load_7pt(mesh, f):
    """Load vector by the degree-5 rule (full dof set)."""
    out = np.zeros(mesh.n_vertices)
    for tri in mesh.triangles:
        coords = mesh.vertices[tri]
        area = triangle_area(coords)
        for lam, w in zip(_G7_BARY, _G7_W):
            x, y = lam @ coords
            fval = f(x, y)
            for i in range(3):
                out[tri[i]] += w * area * fval * lam[i]
    return out


class PointLocator:
    """Barycentric point location with precomputed per-element inverses."""

    def __init__(self, mesh):
        self.mesh = mesh
        systems = np.empty((mesh.n_triangles, 3, 3))
        for e, tri in enumerate(mesh.triangles):
            systems[e] = np.column_stack([np.ones(3), mesh.vertices[tri]]).T
        self.inverses = np.linalg.inv(systems)

    def locate(self, point, tol=1e-12):
        rhs = np.array([1.0, point[0], point[1]])
        lam = self.inverses @ rhs
        hits = np.flatnonzero(np.all(lam >= -tol, axis=1))
        if hits.size == 0:
            raise ValueError(f"point {point} outside mesh")
        return int(hits[0]), lam[hits[0]]

    def hat_value(self, vertex, point):
        e, lam = self.locate(point)
        tri = self.mesh.triangles[e]
        return float(lam[tri == vertex].sum())


def locate_element(mesh, point, tol=1e-12):
    """Element containing a point (first hit; ties on edges are fine)."""
    return PointLocator(mesh).locate(point, tol)


def hat_value(mesh, vertex, point):
    """Evaluate the P1 hat of `vertex` at a point by direct location."""
    return PointLocator(mesh).hat_value(vertex, point)


def hat_gradient_on(mesh, vertex, element):
    """Gradient of the hat of `vertex` restricted to one element."""
    tri = mesh.triangles[element]
    grads = hat_gradients(mesh.vertices[tri])
    g = np.zeros(2)
    for i in range(3):
        if tri[i] == vertex:
            g += grads[i]
    return g


def interpolation_row(hierarchy, coarse_vertex):
    """Quadrature oracle for one quasi-interpolation row (full fine dofs).

    Numerator: edge-midpoint rule for the mass pairing (exact for the
    quadratic integrand) plus exact constant-gradient products; denominator
    likewise.  Coarse hat values come from direct point location on the
    coarse mesh, independent of the prolongation.
    """
    fine = hierarchy.fine
    coarse = hierarchy.coarse
    locator = PointLocator(coarse)
    H = coarse.mesh_size
    row = np.zeros(fine.n_vertices)
    denom = 0.0
    # fine hat values at the edge midpoints m01, m12, m20: 1/2 on own edges
    fine_hat_mid = 0.5 * np.array([
        [1, 0, 1],
        [1, 1, 0],
        [0, 1, 1],
    ])
    for tri in fine.triangles:
        coords = fine.vertices[tri]
        area = triangle_area(coords)
        mids = 0.5 * (coords + np.roll(coords, -1, axis=0))
        lam_coarse = np.array([locator.hat_value(coarse_vertex, m) for m in mids])
        if np.all(lam_coarse == 0.0):
            continue  # linear and zero at all midpoints: zero on the element
        owner, _ = locator.locate(coords.mean(axis=0))
        g_coarse = hat_gradient_on(coarse, coarse_vertex, owner)
        g_fine = hat_gradients(coords)
        for i in range(3):
            mass = area / 3.0 * np.dot(fine_hat_mid[i], lam_coarse)
            grad = area * (g_fine[i] @ g_coarse)
            row[tri[i]] += mass + H * H * grad
        denom += area / 3.0 * lam_coarse.sum()
        denom += H * H * area * np.linalg.norm(g_coarse)
    return row / denom, denom


def dense_kkt_solve(A, C, b):
    """Dense KKT elimination for min 1/2 x'Ax - b'x s.t. Cx = 0."""
    n, m = A.shape[0], C.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = A
    K[:n, n:] = C.T
    K[n:, :n] = C
    rhs = np.concatenate([b, np.zeros(m)])
    z = np.linalg.solve(K, rhs)
    return z[:n], z[n:]


def error_vs_function(mesh, u_full, u_exact, grad_exact):
    """L2 and H1 errors of a P1 function against a smooth exact solution.

    Midpoint quadrature for the L2 part, edge midpoints for the gradient
    part (the P1 gradient is constant per element).
    """
    l2_sq = 0.0
    semi_sq = 0.0
    for tri in mesh.triangles:
        coords = mesh.vertices[tri]
        area = triangle_area(coords)
        grads = hat_gradients(coords)
        uh = u_full[tri]
        grad_uh = uh @ grads
        mids = 0.5 * (coords + np.roll(coords, -1, axis=0))
        vals_uh = np.array([0.5 * (uh[0] + uh[1]), 0.5 * (uh[1] + uh[2]),
                            0.5 * (uh[2] + uh[0])])
        for m, v in zip(mids, vals_uh):
            l2_sq += area / 3.0 * (v - u_exact(m[0], m[1])) ** 2
            gx, gy = grad_exact(m[0], m[1])
            semi_sq += area / 3.0 * ((grad_uh[0] - gx) ** 2 + (grad_uh[1] - gy) ** 2)
    return np.sqrt(l2_sq), np.sqrt(l2_sq + semi_sq)


def global_corrector(hierarchy, ops, interp, node, tol=1e-10):
    """Whole-domain corrector of the coarse interior vertex `node`."""
    dof = hierarchy.coarse.interior_index[node]
    return lod._global_correctors(hierarchy, ops, interp, [dof], tol,
                                  f"global corrector at node {node}")[:, 0]


def node_star(mesh, a):
    """Element ids of all triangles having vertex a (the star of a)."""
    if not isinstance(a, (int, np.integer)) or a < 0 or a >= mesh.n_vertices:
        raise IndexError(f"vertex {a!r} not in mesh with {mesh.n_vertices} vertices")
    return np.flatnonzero((mesh.triangles == a).any(axis=1))


def _smooth_samples(hierarchy, rng, count):
    """Random low-frequency combinations, zero on the boundary."""
    pts = hierarchy.fine.vertices
    out = []
    for _ in range(count):
        v = np.zeros(hierarchy.fine.n_vertices)
        for p in range(1, 4):
            for q in range(1, 4):
                c = rng.standard_normal() / (p * p + q * q)
                v += c * np.sin(np.pi * p * pts[:, 0]) * np.sin(np.pi * q * pts[:, 1])
        out.append(v)
    return out


def _rough_samples(hierarchy, rng, count):
    out = []
    for _ in range(count):
        v = np.zeros(hierarchy.fine.n_vertices)
        v[hierarchy.fine.interior_vertices] = rng.standard_normal(
            hierarchy.fine.n_interior)
        out.append(v)
    return out


def measure_constants(hierarchy, op, trials, seed=0):
    """Empirical stability and approximation constants of the operator.

    Over `trials` random smooth plus `trials` random rough fine functions,
    returns the max over coarse elements K of

        |interp(v)|_{L2(K)} / |v|_{H1(w_K)}   (stability)
        |v - interp(v)|_{L2(K)} / (H |v|_{H1(w_K)})   (approximation)

    where w_K is the one-ring element neighborhood of K.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    fine = hierarchy.fine
    coarse = hierarchy.coarse
    rng = np.random.default_rng(seed)
    samples = _smooth_samples(hierarchy, rng, trials) + \
        _rough_samples(hierarchy, rng, trials)

    adj = coarse.element_adjacency
    neighborhoods = [
        np.sort(hierarchy.children[adj[k].indices].ravel())
        for k in range(coarse.n_triangles)
    ]
    areas = coarse.element_areas

    stability = 0.0
    approximation = 0.0
    for v in samples:
        cvals = np.zeros(coarse.n_vertices)
        cvals[coarse.interior_vertices] = op.matrix_full @ v
        residual = v - hierarchy.prolongation @ (op.matrix_full @ v)
        for k in range(coarse.n_triangles):
            h1 = np.sqrt(fem.subset_h1_sq(fine, neighborhoods[k], v))
            if h1 == 0.0:
                continue
            ck = cvals[coarse.triangles[k]]
            s, q = ck.sum(), (ck * ck).sum()
            interp_l2 = np.sqrt(areas[k] / 12.0 * (s * s + q))
            res_l2 = np.sqrt(fem.subset_l2_sq(fine, hierarchy.children[k], residual))
            stability = max(stability, interp_l2 / h1)
            approximation = max(approximation, res_l2 / (op.coarse_size * h1))
    return stability, approximation


def fit_decay(radii, tails, spacing):
    """Least-squares slope and R^2 of log(tail) against radius/spacing.

    Zero tails (radii beyond the domain) carry no decay information and are
    dropped; at least three positive tails are required.
    """
    radii = np.asarray(radii, dtype=float)
    tails = np.asarray(tails, dtype=float)
    keep = tails > 0
    if keep.sum() < 3:
        raise ValueError("need at least three positive tails to fit a decay rate")
    x = radii[keep] / spacing
    y = np.log(tails[keep])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(slope), float(r2)
