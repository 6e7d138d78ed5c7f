"""Experiment runners: single solves, convergence sweeps, decay studies.

Every runner builds one fine mesh, nests each coarse mesh in it, measures
errors against the standard fine-grid reference solution and emits
plot-ready CSV.  The naive coarse P1 Galerkin solution is always reported
alongside the multiscale rows as patch order 0, so one table shows the
multiscale advantage directly.  CSV bytes are reproducible for a fixed
config: floats carry 12 significant digits, rows follow ascending (coarse
size, patch order), and lines end with a bare newline.  Wall times are only
written when `timings = wall`; determinism checks use `timings = off`.
"""

import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from . import coefficient, fem, interpolation, lod
from .config import ConfigError
from .mesh import build_uniform_mesh, refine_hierarchy

CSV_HEADER = "coarse_n,level_l,err_l2,err_h1,err_energy,order_l2,order_h1,seconds"
DECAY_HEADER = "radius,tail_h1,ratio"


def rhs_function(name):
    """f(x, y) of a validated rhs selector (one of RHS_NAMES)."""
    if name == "x":
        return lambda x, y: x
    if name == "one":
        return lambda x, y: np.ones_like(x)
    if name == "zero":
        return lambda x, y: np.zeros_like(x)
    return lambda x, y: 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)


def build_coefficient(cfg, fine):
    """The coefficient field of a validated config (its kind is one of
    COEFF_KINDS); parameters a generator rejects are a ConfigError."""
    kind = cfg.coeff_kind
    try:
        if kind == "constant":
            return coefficient.make_constant(cfg.coeff_constant, fine)
        if kind == "periodic":
            return coefficient.make_periodic(cfg.coeff_epsilon,
                                             cfg.coeff_amplitude, fine)
        return coefficient.make_checkerboard(cfg.coeff_cell,
                                             cfg.coeff_contrast, cfg.seed, fine)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _line(*values, sep=","):
    """One output line: the values at 12 significant digits (so integers
    below 10^12 print whole)."""
    return sep.join(format(float(x), ".12g") for x in values) + "\n"


def _write(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_points(path, points, values):
    """One `x y value` line per point."""
    _write(path, "".join(_line(*xy, v, sep=" ") for xy, v in zip(points, values)))


def _validated(cfg):
    """The validated config; each output path set must name a file in an
    existing, writable directory, so that a run is not lost at its end."""
    for path in filter(None, (cfg.validate().out, cfg.solution_out)):
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path) or not os.path.isdir(folder) \
                or not os.access(folder, os.W_OK):
            raise ConfigError(f"cannot write {path!r}: not a file in a "
                              "writable directory")
    return cfg


@dataclass
class ReportRow:
    coarse_n: int
    level: int                  # patch order; 0 marks the plain coarse FEM baseline
    err_l2: float
    err_h1: float
    err_energy: float
    order_l2: float = float("nan")
    order_h1: float = float("nan")
    seconds: float = 0.0
    corrector_count: int = 0

    def csv_line(self):
        return _line(self.coarse_n, self.level, self.err_l2, self.err_h1,
                     self.err_energy, self.order_l2, self.order_h1, self.seconds)


@dataclass
class ErrorReport:
    rows: list = field(default_factory=list)

    def csv_text(self):
        return CSV_HEADER + "\n" + "".join(row.csv_line() for row in self.rows)

    def failed(self):
        """Whether the solve of any row failed (its errors are NaN)."""
        return any(np.isnan(row.err_energy) for row in self.rows)

    def fill_orders(self):
        """Observed order between consecutive coarse sizes of the same level."""
        by_level = {}
        for row in self.rows:
            by_level.setdefault(row.level, []).append(row)
        for rows in by_level.values():
            rows.sort(key=lambda r: r.coarse_n)
            for prev, cur in zip(rows, rows[1:]):
                ratio = np.log(cur.coarse_n / prev.coarse_n)
                if prev.err_l2 > 0 and cur.err_l2 > 0:
                    cur.order_l2 = float(np.log(prev.err_l2 / cur.err_l2) / ratio)
                if prev.err_h1 > 0 and cur.err_h1 > 0:
                    cur.order_h1 = float(np.log(prev.err_h1 / cur.err_h1) / ratio)
        return self


def _problem(cfg):
    """The run's one fine mesh and its assembled operators."""
    fine = build_uniform_mesh(cfg.fine_n)
    coeff = build_coefficient(cfg, fine)
    return fine, fem.build_operators(fine, coeff, rhs_function(cfg.rhs))


def _hierarchy(fine, coarse_n):
    """Coarse mesh `coarse_n` nested in the run's fine mesh, and its
    quasi-interpolation."""
    hier = refine_hierarchy(build_uniform_mesh(coarse_n), fine)
    return hier, interpolation.build_interpolation(hier)


def _correctors(cfg, hier, ops, interp, order):
    """The corrector set of patch order `order`: none (all zero) at order 0,
    else localized to order-k patches."""
    if order == 0:
        return lod.CorrectorSet(sparse.csr_matrix(
            (hier.coarse.n_interior, hier.fine.n_interior)))
    return lod.assemble_corrector_set(hier, ops, interp, order=order,
                                      tol=cfg.tol, threads=cfg.threads)


def _solve_level(cfg, hier, ops, interp, u_ref, level, order):
    """Errors, corrector count and fine solution of the row `level`, solved
    at patch order `order`.

    Order 0 is the plain coarse FEM and k the correctors localized to
    order-k patches, each solved on its multiscale space.  Order None, the
    global correctors, is the A-orthogonal projection of u_ref onto their
    multiscale space: u_ref less its projection onto the kernel of the
    quasi-interpolation, one constrained solve with no corrector set.  A
    solver failure gives NaN errors, a zero count and no solution, and its
    reason on stderr.
    """
    coarse = hier.coarse
    try:
        if order is None:
            count = coarse.n_interior
            u_ms = u_ref - lod._kernel_projection(
                hier, ops, interp, u_ref, cfg.tol, "global projection")
        else:
            # the corrector set is passed on, not kept, so that the
            # multiscale space can let it go once its basis exists
            space = lod.build_multiscale_space(
                hier, ops, _correctors(cfg, hier, ops, interp, order),
                "petrov_galerkin" if cfg.mode == "petrov" and order != 0
                else "galerkin")
            count = 0 if order == 0 else int(np.count_nonzero(
                coarse.interior_index[coarse.triangles] >= 0))
            _, u_ms = lod.solve_multiscale(space, cfg.tol)
        return fem.error_norms(hier.fine, u_ms, u_ref, ops), count, u_ms
    except lod.SolverFailure as exc:
        print(f"row coarse_n={coarse.cells_per_side} level={level} "
              f"failed: {exc}", file=sys.stderr)
        return (float("nan"),) * 3, 0, None


def _sweep(cfg, coarse_list, level_list):
    """One (coarse size, level) grid against a shared fine reference, written
    to `cfg.out` if set.

    Each level's patch order is the level itself, or None (global) for every
    positive level in global mode.  Each order is solved once per coarse
    size and its row copied to every level that uses it, with `seconds` 0.
    """
    _validated(cfg)
    fine, ops = _problem(cfg)
    u_ref = fem.solve_reference(fine, ops, cfg.tol)

    report = ErrorReport()
    for coarse_n in sorted(coarse_list):
        hier, interp = _hierarchy(fine, coarse_n)
        solved = {}  # patch order -> (errors, count, solution)
        for level in [0] + sorted(level_list):
            order = None if cfg.mode == "global" and level > 0 else level
            seconds = 0.0
            if order not in solved:
                start = time.perf_counter()
                solved[order] = _solve_level(cfg, hier, ops, interp, u_ref,
                                             level, order)
                if cfg.timings == "wall":
                    seconds = time.perf_counter() - start
            errs, count, u_ms = solved[order]
            report.rows.append(ReportRow(
                coarse_n=coarse_n, level=level,
                err_l2=errs[0], err_h1=errs[1], err_energy=errs[2],
                seconds=seconds, corrector_count=count))
    report.fill_orders()
    if cfg.out:
        _write(cfg.out, report.csv_text())
    return report, fine, u_ms


def run_convergence(cfg):
    """Sweep the full (coarse size, patch order) grid of the config."""
    return _sweep(cfg, cfg.coarse_n, cfg.levels)[0]


def run_solve(cfg):
    """Single solve at the first coarse size and patch order of the config."""
    report, fine, u_ms = _sweep(cfg, cfg.coarse_n[:1], cfg.levels[:1])
    if cfg.solution_out and u_ms is not None:
        _write_points(cfg.solution_out, fine.vertices, fem.pad_full(fine, u_ms))
    return report


def _decay_node(cfg, coarse):
    if cfg.decay_node == "center":
        dist = np.linalg.norm(coarse.vertices - 0.5, axis=1)
        dist[coarse.boundary_flags] = np.inf
        return int(np.argmin(dist))
    node = int(cfg.decay_node)
    if node >= coarse.n_vertices or coarse.interior_index[node] < 0:
        raise ConfigError(f"decay_node {node} is not an interior coarse vertex")
    return node


def run_decay(cfg):
    """Tail norms of one global corrector at increasing radii."""
    _validated(cfg)
    fine, ops = _problem(cfg)
    coarse_n = max(cfg.coarse_n)  # the finest coarse mesh gives the most radii
    hier, interp = _hierarchy(fine, coarse_n)
    node = _decay_node(cfg, hier.coarse)
    dof = hier.coarse.interior_index[node]
    hat = hier.prolongation_interior[:, dof].toarray().ravel()
    phi = lod._kernel_projection(hier, ops, interp, hat, cfg.tol,
                                 f"global corrector at node {node}")

    spacing = 1.0 / coarse_n
    factors = cfg.decay_factors or tuple(
        range(2, int(np.floor(np.sqrt(2.0) * coarse_n)) + 1))
    radii = [m * spacing for m in factors]
    tails = lod.measure_corrector_decay(hier, node, phi, radii)

    text, prev = DECAY_HEADER + "\n", None
    for radius, tail in tails:
        text += _line(radius, tail, tail / prev if prev else float("nan"))
        prev = tail
    if cfg.out:
        _write(cfg.out, text)
    return tails, text


def run_coeff_export(cfg):
    """Write the coefficient raster (centroid and value per fine element)."""
    _validated(cfg)
    if not cfg.out:
        raise ConfigError("coeff-export needs an output path")
    fine = build_uniform_mesh(cfg.fine_n)
    coeff = build_coefficient(cfg, fine)
    _write_points(cfg.out, fine.element_centroids, coeff.values)
    return coeff
