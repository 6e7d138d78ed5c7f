"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
timings.  Shared sweeps are computed once in module fixtures and reused by
the determinism criterion, which reruns them at a different thread count.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from lodfem import ExperimentConfig, build_interpolation, \
    build_multiscale_space, build_operators, build_uniform_mesh, \
    element_patch, error_norms, make_checkerboard, make_constant, pad_full, \
    refine_hierarchy, solve_multiscale, solve_reference
from lodfem.harness import run_convergence, run_decay
from lodfem.lod import assemble_corrector_set

import oracles
from oracles import fit_decay, global_corrector, node_star


@contextmanager
def criterion(name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name} ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"[PASS] {name} ({time.perf_counter() - start:.1f}s)")


# -- shared experiment configs -----------------------------------------------

PERIODIC = dict(coeff_kind="periodic", coeff_epsilon=0.25, coeff_amplitude=8.0)
CHECKER = dict(coeff_kind="checkerboard", coeff_cell=64, coeff_contrast=20.0,
               seed=10)


def conv_config(family, **kw):
    base = dict(fine_n=64, coarse_n=(4, 8, 16), levels=(2,), mode="localized",
                rhs="x", timings="off", threads=1)
    base.update(PERIODIC if family == "periodic" else CHECKER)
    base.update(kw)
    return ExperimentConfig(**base).validate()


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def conv6_runs():
    """Criterion 6 sweeps, run twice (second run on two threads)."""
    runs = {}
    elapsed = 0.0
    for family in ("periodic", "checkerboard"):
        cfg = conv_config(family)
        (report, dt1) = _timed(run_convergence, cfg)
        (report2, dt2) = _timed(run_convergence, replace(cfg, threads=2))
        runs[family] = (report, report.csv_text(), report2.csv_text())
        elapsed += dt1 + dt2
    runs["elapsed"] = elapsed
    return runs


@pytest.fixture(scope="module")
def conv7_runs():
    """Criterion 7 sweeps at coarse n=8 with l = 1, 2, 3, run twice."""
    runs = {}
    elapsed = 0.0
    for family in ("periodic", "checkerboard"):
        cfg = conv_config(family, coarse_n=(8,), levels=(1, 2, 3))
        (report, dt1) = _timed(run_convergence, cfg)
        (report2, dt2) = _timed(run_convergence, replace(cfg, threads=2))
        runs[family] = (report, report.csv_text(), report2.csv_text())
        elapsed += dt1 + dt2
    runs["elapsed"] = elapsed
    return runs


@pytest.fixture(scope="module")
def decay_runs():
    """Criterion 5 decay study, run twice."""
    cfg = conv_config("checkerboard", coarse_n=(8,),
                      coeff_contrast=1000.0, decay_factors=(2, 3, 4, 5, 6))
    (first, dt1) = _timed(run_decay, cfg)
    (second, dt2) = _timed(run_decay, replace(cfg, threads=2))
    return {"tails": first[0], "text": first[1], "text2": second[1],
            "elapsed": dt1 + dt2, "spacing": 1.0 / 8.0}


# -- criteria -----------------------------------------------------------------

def test_criterion_1_fem_manufactured_orders():
    with criterion("criterion 1: manufactured-solution FEM orders"):
        start = time.perf_counter()
        u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        gu = lambda x, y: (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                           np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))
        f = lambda x, y: 2 * np.pi ** 2 * u(x, y)
        errors = []
        for n in (16, 32, 64):
            mesh = build_uniform_mesh(n)
            ops = build_operators(mesh, make_constant(1.0, mesh), f)
            sol = pad_full(mesh, solve_reference(ops))
            errors.append(oracles.error_vs_function(mesh, sol, u, gu))
        l2_orders = [np.log2(a[0] / b[0]) for a, b in zip(errors, errors[1:])]
        h1_orders = [np.log2(a[1] / b[1]) for a, b in zip(errors, errors[1:])]
        assert all(abs(o - 2.0) <= 0.1 for o in l2_orders), l2_orders
        assert all(abs(o - 1.0) <= 0.1 for o in h1_orders), h1_orders
        assert time.perf_counter() - start < 30.0


def test_criterion_2_interpolation_matches_dense_oracle():
    with criterion("criterion 2: quasi-interpolation vs quadrature oracle"):
        start = time.perf_counter()
        hier = refine_hierarchy(build_uniform_mesh(4), 2)
        op = build_interpolation(hier)
        for row_idx, node in enumerate(hier.coarse.interior_vertices):
            row_oracle, denom = oracles.interpolation_row(hier, int(node))
            row = op.matrix_full.getrow(row_idx).toarray().ravel()
            assert np.abs(row - row_oracle).max() <= 1e-12
            # sparsity confined to the node's star
            star_fine = np.unique(
                hier.fine.triangles[hier.children[
                    node_star(hier.coarse, int(node))].ravel()])
            assert set(op.matrix_full.getrow(row_idx).indices) <= set(star_fine)
        assert time.perf_counter() - start < 5.0


def test_criterion_3_corrector_orthogonality():
    with criterion("criterion 3: corrector orthogonality on kernel basis"):
        start = time.perf_counter()
        hier = refine_hierarchy(build_uniform_mesh(4), 2)
        coeff = make_checkerboard(16, 100.0, 1, hier.fine)
        ops = build_operators(hier.fine, coeff, lambda x, y: x)
        interp = build_interpolation(hier)
        kernel = sla.null_space(interp.matrix.toarray())
        for node in hier.coarse.interior_vertices:
            phi = global_corrector(hier, ops, interp, int(node))
            dof = hier.coarse.interior_index[node]
            hat = hier.prolongation_interior[:, dof].toarray().ravel()
            pairings = kernel.T @ (ops.stiffness_coeff @ (hat - phi))
            assert np.abs(pairings).max() <= 1e-8
        assert time.perf_counter() - start < 60.0


def test_criterion_4_localization_saturation():
    with criterion("criterion 4: saturation reproduces global correctors"):
        start = time.perf_counter()
        hier = refine_hierarchy(build_uniform_mesh(4), 3)  # coarse 4 / fine 32
        coeff = make_checkerboard(16, 100.0, 1, hier.fine)
        ops = build_operators(hier.fine, coeff, lambda x, y: x)
        interp = build_interpolation(hier)
        nt = hier.coarse.n_triangles
        l_sat = next(order for order in range(1, 20) if all(
            element_patch(hier, k, order).coarse_elements.size == nt
            for k in range(nt)))

        global_set = assemble_corrector_set(hier, ops, interp, order=None)
        local_set = assemble_corrector_set(hier, ops, interp, order=l_sat)
        S = ops.stiffness_coeff
        for i in range(global_set.matrix.shape[0]):
            d = (global_set.matrix.getrow(i)
                 - local_set.matrix.getrow(i)).toarray().ravel()
            assert np.sqrt(max(d @ (S @ d), 0.0)) <= 1e-8

        _, u_global = solve_multiscale(
            build_multiscale_space(hier, ops, global_set))
        _, u_local = solve_multiscale(
            build_multiscale_space(hier, ops, local_set))
        assert error_norms(u_local, u_global, ops)[2] <= 1e-8
        assert time.perf_counter() - start < 120.0


def test_criterion_5_exponential_decay(decay_runs):
    with criterion(f"criterion 5: corrector tail decay fit "
                   f"(sweeps {decay_runs['elapsed']:.1f}s)"):
        tails = decay_runs["tails"]
        radii = [r for r, _ in tails]
        values = [t for _, t in tails]
        assert radii == [m / 8 for m in (2, 3, 4, 5, 6)]
        ratios = [b / a for a, b in zip(values, values[1:]) if a > 0]
        assert all(r < 1 for r in ratios), ratios
        slope, r2 = fit_decay(radii, values, decay_runs["spacing"])
        assert slope < 0, slope
        assert r2 >= 0.9, r2
        assert decay_runs["elapsed"] < 120.0


def test_criterion_6_convergence_rates(conv6_runs):
    with criterion(f"criterion 6: localized l=2 convergence on both families "
                   f"(sweeps {conv6_runs['elapsed']:.1f}s)"):
        for family in ("periodic", "checkerboard"):
            report = conv6_runs[family][0]
            lod_rows = {r.coarse_n: r for r in report.rows if r.level == 2}
            orders = [lod_rows[8].order_h1, lod_rows[16].order_h1]
            assert all(o >= 0.8 for o in orders), (family, orders)
        report = conv6_runs["checkerboard"][0]
        fem8 = next(r for r in report.rows if r.level == 0 and r.coarse_n == 8)
        lod8 = next(r for r in report.rows if r.level == 2 and r.coarse_n == 8)
        assert lod8.err_h1 <= 0.5 * fem8.err_h1, (lod8.err_h1, fem8.err_h1)
        assert conv6_runs["elapsed"] < 600.0


def test_criterion_7_patch_order_monotonicity(conv7_runs):
    with criterion(f"criterion 7: errors nonincreasing in patch order "
                   f"(sweeps {conv7_runs['elapsed']:.1f}s)"):
        for family in ("periodic", "checkerboard"):
            report = conv7_runs[family][0]
            errs = {r.level: r.err_h1 for r in report.rows if r.level > 0}
            assert errs[1] >= errs[2] >= errs[3], (family, errs)
        assert conv7_runs["elapsed"] < 600.0


def test_criterion_8_byte_determinism(decay_runs, conv6_runs, conv7_runs):
    with criterion("criterion 8: byte-identical CSVs across thread counts"):
        assert decay_runs["text"] == decay_runs["text2"]
        for family in ("periodic", "checkerboard"):
            assert conv6_runs[family][1] == conv6_runs[family][2]
            assert conv7_runs[family][1] == conv7_runs[family][2]
