"""Experiment runners: single solves, convergence sweeps, decay studies.

Every runner measures errors against the standard fine-grid reference
solution and emits plot-ready CSV.  The naive coarse P1 Galerkin solution is
always reported alongside the multiscale rows as patch order 0, so one table
shows the multiscale advantage directly.  CSV bytes are reproducible for a
fixed config: floats carry 12 significant digits, rows follow ascending
(coarse size, patch order), and lines end with a bare newline.  Wall times
are only written when `timings = wall`; determinism checks use
`timings = off`.
"""

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
    if name == "x":
        return lambda x, y: x
    if name == "one":
        return lambda x, y: np.ones_like(x)
    if name == "zero":
        return lambda x, y: np.zeros_like(x)
    if name == "manufactured":
        return lambda x, y: 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    raise ConfigError(f"unknown rhs selector: {name!r}")


def build_coefficient(cfg, fine):
    """The config's coefficient field; parameters a generator rejects are a
    ConfigError."""
    kind = cfg.coeff_kind
    try:
        if kind == "constant":
            return coefficient.make_constant(cfg.coeff_constant, fine)
        if kind == "periodic":
            return coefficient.make_periodic(cfg.coeff_epsilon,
                                             cfg.coeff_amplitude, fine)
        if kind == "checkerboard":
            return coefficient.make_checkerboard(cfg.coeff_cell,
                                                 cfg.coeff_contrast, cfg.seed,
                                                 fine)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown coefficient kind: {kind!r}")


def _fmt(x):
    return format(float(x), ".12g")


def _write(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


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
        return ",".join([
            str(self.coarse_n), str(self.level),
            _fmt(self.err_l2), _fmt(self.err_h1), _fmt(self.err_energy),
            _fmt(self.order_l2), _fmt(self.order_h1), _fmt(self.seconds),
        ])


@dataclass
class ErrorReport:
    rows: list = field(default_factory=list)

    def csv_text(self):
        lines = [CSV_HEADER] + [row.csv_line() for row in self.rows]
        return "\n".join(lines) + "\n"

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
    """The config's fine mesh and its assembled operators."""
    fine = build_uniform_mesh(cfg.fine_n)
    coeff = build_coefficient(cfg, fine)
    return fine, fem.build_operators(fine, coeff, rhs_function(cfg.rhs))


def _hierarchy(cfg, coarse_n):
    """Coarse mesh `coarse_n` nested in the config's fine grid, and its
    quasi-interpolation."""
    hier = refine_hierarchy(build_uniform_mesh(coarse_n),
                            int(np.log2(cfg.fine_n // coarse_n)))
    return hier, interpolation.build_interpolation(hier)


def _solve_level(cfg, hier, ops, interp, u_ref, level, order):
    """Errors, corrector count and fine solution of the row `level`, solved
    at patch order `order`.

    Order 0 is the plain coarse FEM, None the global correctors and k the
    correctors localized to order-k patches.  A solver failure gives NaN
    errors, a zero count and no solution, and its reason on stderr.
    """
    coarse = hier.coarse
    try:
        if order == 0:
            correctors = lod.CorrectorSet(sparse.csr_matrix(
                (coarse.n_interior, hier.fine.n_interior)))
            count = 0
        else:
            correctors = lod.assemble_corrector_set(
                hier, ops, interp, order=order, tol=cfg.tol,
                threads=cfg.threads)
            count = coarse.n_interior if order is None else int(
                np.count_nonzero(coarse.interior_index[coarse.triangles] >= 0))
        space = lod.build_multiscale_space(hier, ops, correctors)
        solve_mode = "petrov_galerkin" \
            if cfg.mode == "petrov" and order != 0 else "galerkin"
        _, u_ms = lod.solve_multiscale(space, solve_mode, cfg.tol)
        return fem.error_norms(u_ms, u_ref, ops), count, u_ms
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
    cfg.validate()
    fine, ops = _problem(cfg)
    u_ref = fem.solve_reference(ops, cfg.tol)

    report = ErrorReport()
    for coarse_n in sorted(coarse_list):
        hier, interp = _hierarchy(cfg, coarse_n)
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
        full = fem.pad_full(fine, u_ms)
        lines = [f"{_fmt(x)} {_fmt(y)} {_fmt(v)}"
                 for (x, y), v in zip(fine.vertices, full)]
        _write(cfg.solution_out, "\n".join(lines) + "\n")
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
    cfg.validate()
    _, ops = _problem(cfg)
    coarse_n = max(cfg.coarse_n)  # the finest coarse mesh gives the most radii
    hier, interp = _hierarchy(cfg, coarse_n)
    node = _decay_node(cfg, hier.coarse)
    phi = lod._global_correctors(
        hier, ops, interp, [hier.coarse.interior_index[node]], cfg.tol,
        f"global corrector at node {node}")[:, 0]

    spacing = 1.0 / coarse_n
    factors = cfg.decay_factors or tuple(
        range(2, int(np.floor(np.sqrt(2.0) * coarse_n)) + 1))
    radii = [m * spacing for m in factors]
    tails = lod.measure_corrector_decay(hier, node, phi, radii)

    lines = [DECAY_HEADER]
    prev = None
    for radius, tail in tails:
        ratio = tail / prev if prev else float("nan")
        lines.append(f"{_fmt(radius)},{_fmt(tail)},{_fmt(ratio)}")
        prev = tail
    text = "\n".join(lines) + "\n"
    if cfg.out:
        _write(cfg.out, text)
    return tails, text


def run_coeff_export(cfg):
    """Write the coefficient raster (centroid and value per fine element)."""
    cfg.validate()
    if not cfg.out:
        raise ConfigError("coeff-export needs an output path")
    fine = build_uniform_mesh(cfg.fine_n)
    coeff = build_coefficient(cfg, fine)
    coefficient.export_raster(coeff, fine, cfg.out)
    return coeff
