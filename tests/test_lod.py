import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from concurrent import futures
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st

from lodfem import fem, harness, linalg, lod
from lodfem import ExperimentConfig, SolverFailure, build_interpolation, \
    build_multiscale_space, build_uniform_mesh, build_operators, \
    element_patch, error_norms, make_checkerboard, make_constant, \
    measure_corrector_decay, refine_hierarchy, solve_multiscale, \
    solve_reference
from lodfem.lod import CorrectorSet, MultiscaleSpace, assemble_corrector_set

from oracles import dense_kkt_solve, entry_values, fit_decay, \
    global_corrector, global_corrector_set, interior_interpolation, \
    kkt_matrix, node_star


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
    hier, _, interp = problem
    return sla.null_space(interior_interpolation(hier, interp).toarray())


def energy(ops, v):
    return float(np.sqrt(max(v @ (ops.stiffness_coeff @ v), 0.0)))


def element_contribution(solver, node, element):
    """Fine interior vector of `node`'s contribution from `element`'s patch,
    solved on its own by `solver` (a lod._PatchSolver)."""
    hier = solver.hierarchy
    (stack,) = solver.stacks(np.array([element]))
    x = solver.solve(stack)
    (dofs,), _, (nodes,) = solver.place(stack)
    column = list(nodes).index(hier.coarse.interior_index[node])
    out = np.zeros(hier.fine.n_interior)
    out[dofs] = x[0, :, column]
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
    C = interior_interpolation(hier, interp)
    for cs in (global_corrector_set(hier, ops, interp),
               assemble_corrector_set(hier, ops, interp, order=2)):
        for i in range(cs.matrix.shape[0]):
            phi = cs.matrix.getrow(i).toarray().ravel()
            assert np.linalg.norm(C @ phi) <= 1e-9


@pytest.mark.parametrize("order", [None, 0, 1.5])
def test_corrector_set_rejects_invalid_order_up_front(small_hierarchy, order):
    """A patch order that is not an integer >= 1 raises element_patch's
    ValueError, before the operators are read."""
    with pytest.raises(ValueError, match="invalid patch order") as rejected:
        assemble_corrector_set(small_hierarchy, None, None, order=order)
    with pytest.raises(ValueError) as by_patch:
        element_patch(small_hierarchy, 0, order)
    assert str(rejected.value) == str(by_patch.value)


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, float("inf")])
def test_corrector_set_rejects_a_tolerance_it_cannot_test(problem, tol,
                                                          monkeypatch):
    """A tolerance that is not finite and positive is a ValueError, serial or
    pooled, and not a corrector set whose solves nothing checked (nan, inf)
    or a missed tolerance (0, -1)."""
    _two_cpus(monkeypatch)
    hier, ops, interp = problem
    for threads in (1, 2):
        with pytest.raises(ValueError, match="finite and positive"):
            assemble_corrector_set(hier, ops, interp, order=1, tol=tol,
                                   threads=threads)


def test_local_corrector_supported_in_patch(problem):
    hier, ops, interp = problem
    node = int(hier.coarse.interior_vertices[0])
    element = int(node_star(hier.coarse, node)[0])
    patch = element_patch(hier, element, 1)
    phi = element_contribution(lod._PatchSolver(hier, ops, interp, 1, 1e-10),
                               node, element)
    outside = np.setdiff1d(np.arange(hier.fine.n_interior),
                           patch.fine_interior_dofs)
    assert np.all(phi[outside] == 0.0)
    assert np.any(phi != 0.0)


@settings(max_examples=10)
@given(fine_n=st.sampled_from([16, 32]), coarse_n=st.sampled_from([4, 8]),
       log_contrast=st.floats(0.0, 6.0), seed=st.integers(0, 2 ** 32 - 1))
def test_local_correctors_sum_to_global_at_saturation(fine_n, coarse_n,
                                                      log_contrast, seed):
    """At the order where every patch is the whole mesh, the assembled
    localized correctors equal the global ones to 1e-8 in energy, row by
    row."""
    hier = refine_hierarchy(build_uniform_mesh(coarse_n),
                            build_uniform_mesh(fine_n))
    coeff = make_checkerboard(fine_n, 10.0 ** log_contrast, seed, hier.fine)
    ops = build_operators(hier.fine, coeff, lambda x, y: x)
    interp = build_interpolation(hier)
    local = assemble_corrector_set(hier, ops, interp,
                                   order=saturation_order(hier))
    whole = global_corrector_set(hier, ops, interp)
    diff = (local.matrix - whole.matrix).toarray()
    assert max(energy(ops, row) for row in diff) <= 1e-8


def test_assemble_matches_manual_star_sums(monkeypatch):
    """Every row of the corrector matrix, at 1 and 2 workers, has the bits
    of its node's contributions from the elements of its star, each solved
    on its own, summed from zero in ascending element order: at fine 16,
    orders 1 and 2, and at fine 32, order 1, where the patches of 8 of the
    30 seed elements are past _DENSE_MAX_DOFS, so SuperLU solutions are
    summed too.  The matrix is canonical and stores no zero."""
    _two_cpus(monkeypatch)
    for fine_n, order in [(16, 1), (16, 2), (32, 1)]:
        hier = refine_hierarchy(build_uniform_mesh(4),
                                build_uniform_mesh(fine_n))
        ops = build_operators(hier.fine,
                              make_checkerboard(4, 100.0, 1, hier.fine),
                              lambda x, y: x)
        interp = build_interpolation(hier)
        solver = lod._PatchSolver(hier, ops, interp, order, 1e-10)
        seeds = np.flatnonzero(
            (hier.coarse.interior_index[hier.coarse.triangles] >= 0).any(axis=1))
        assert sum(members.size for t, members in solver.stacks(seeds)
                   if t.dofs.size > lod._DENSE_MAX_DOFS) == \
            (8 if fine_n == 32 else 0)
        manual = np.zeros((hier.coarse.n_interior, hier.fine.n_interior))
        for node in hier.coarse.interior_vertices:
            row = manual[hier.coarse.interior_index[node]]
            for element in np.sort(node_star(hier.coarse, node)):
                row += element_contribution(solver, int(node), int(element))
        for threads in (1, 2):
            matrix = assemble_corrector_set(hier, ops, interp, order=order,
                                            threads=threads).matrix
            assert matrix.has_canonical_format and np.all(matrix.data != 0)
            np.testing.assert_array_equal(matrix.toarray(), manual)


def test_localized_truncation_decreases_with_order(problem):
    hier, ops, interp = problem
    gs = global_corrector_set(hier, ops, interp)
    errors = []
    for order in (1, 2, 3):
        ls = assemble_corrector_set(hier, ops, interp, order=order)
        diff = (gs.matrix - ls.matrix).toarray()
        errors.append(max(energy(ops, diff[i]) for i in range(diff.shape[0])))
    assert errors[0] >= errors[1] >= errors[2]


def test_threaded_assembly_bit_identical(problem, monkeypatch):
    """The corrector matrix has the same bits at 1, 2 and 4 workers."""
    hier, ops, interp = problem
    monkeypatch.setattr(lod.os, "sched_getaffinity", lambda pid: set(range(4)))
    serial = assemble_corrector_set(hier, ops, interp, order=2, threads=1)
    for threads in (2, 4):
        pooled = assemble_corrector_set(hier, ops, interp, order=2,
                                        threads=threads)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(pooled.matrix, name),
                                  getattr(serial.matrix, name))


@pytest.mark.parametrize("cpus", [1, 2])
def test_process_pool_capped_at_usable_cpus(monkeypatch, cpus):
    """threads = 5000 asks for no more worker processes than the CPUs the
    process may use, for no pool on one CPU, and for none off Linux, the one
    platform the workers are forked on; the corrector matrix keeps the
    serial bits."""
    pools = []

    class RecordingPool(futures.ProcessPoolExecutor):
        def __init__(self, max_workers, *args):
            pools.append(max_workers)
            super().__init__(max_workers, *args)

    hier = refine_hierarchy(build_uniform_mesh(8), build_uniform_mesh(16))
    ops = build_operators(hier.fine, make_checkerboard(16, 100.0, 1, hier.fine),
                          lambda x, y: x)
    interp = build_interpolation(hier)
    monkeypatch.setattr(lod, "_STACK_BYTES", 1)
    serial = assemble_corrector_set(hier, ops, interp, order=1, threads=1)
    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(lod.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    capped = assemble_corrector_set(hier, ops, interp, order=1, threads=5000)
    assert pools == ([cpus] if cpus > 1 else [])
    monkeypatch.setattr(lod.sys, "platform", "darwin")
    elsewhere = assemble_corrector_set(hier, ops, interp, order=1,
                                       threads=5000)
    assert pools == ([cpus] if cpus > 1 else [])
    for matrix in (capped.matrix, elsewhere.matrix):
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(matrix, name),
                                  getattr(serial.matrix, name))


def _two_cpus(monkeypatch):
    """Let the corrector pool fork two workers on any machine."""
    monkeypatch.setattr(lod.os, "sched_getaffinity", lambda pid: {0, 1})


def test_worker_failure_reaches_the_caller(problem, monkeypatch):
    """A stack failing in a worker raises in the caller the SolverFailure of
    the serial sweep, with its element and residual, and no worker is left
    after it or after a sweep that succeeds."""
    hier, ops, interp = problem
    _two_cpus(monkeypatch)
    failures = []
    for threads in (1, 2):
        with pytest.raises(SolverFailure,
                           match=r"corrector patch of element \d+: solve missed"
                           ) as failure:
            assemble_corrector_set(hier, ops, interp, order=1, tol=1e-30,
                                   threads=threads)
        assert not multiprocessing.active_children()
        failures.append(failure.value)
    serial, pooled = failures
    assert str(pooled) == str(serial)
    assert pooled.residual is not None and pooled.residual == serial.residual
    assemble_corrector_set(hier, ops, interp, order=2, threads=2)
    assert not multiprocessing.active_children()


def _live_group(pgid):
    """Pids of the processes of group `pgid` that are not zombies."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


@pytest.mark.skipif(sys.platform != "linux",
                    reason="corrector workers are forked on Linux only")
def test_killed_sweep_leaves_no_worker():
    """A sweep of two-worker corrector sets, started in its own session and
    killed by SIGKILL while its workers run, leaves no live process in its
    group within 2 s."""
    script = (
        "import os\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from lodfem import *\n"
        "hier = refine_hierarchy(build_uniform_mesh(8), build_uniform_mesh(64))\n"
        "ops = build_operators(hier.fine, make_constant(1.0, hier.fine), lambda x, y: x)\n"
        "interp = build_interpolation(hier)\n"
        "while True:\n"
        "    assemble_corrector_set(hier, ops, interp, order=2, threads=2)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src"), os.environ.get("PYTHONPATH", "")])}
    sweep = subprocess.Popen([sys.executable, "-c", script], env=env,
                             start_new_session=True)
    try:
        deadline = time.monotonic() + 120
        while len(_live_group(sweep.pid)) < 3:  # the sweep and its workers
            assert sweep.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        sweep.kill()
        sweep.wait()
        deadline = time.monotonic() + 2
        while _live_group(sweep.pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _live_group(sweep.pid)
    finally:
        for pid in _live_group(sweep.pid):
            os.kill(pid, signal.SIGKILL)
        sweep.kill()
        sweep.wait()


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
    C = interior_interpolation(hier, interp)
    assert np.all(np.linalg.norm(phi @ C.T.toarray(), axis=1)
                  <= 1e-8 * np.linalg.norm(phi, axis=1))
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(serial, name), getattr(threaded, name))


def test_multiscale_zero_rhs(problem):
    hier, ops, interp = problem
    zero_ops = build_operators(hier.fine, ops.coeff,
                               lambda x, y: np.zeros_like(x))
    cs = global_corrector_set(hier, zero_ops, interp)
    space = build_multiscale_space(hier, zero_ops, cs)
    coeffs, fine = solve_multiscale(space)
    assert np.all(coeffs == 0) and np.all(fine == 0)


def test_multiscale_galerkin_residual(problem):
    hier, ops, interp = problem
    cs = global_corrector_set(hier, ops, interp)
    space = build_multiscale_space(hier, ops, cs)
    coeffs, fine = solve_multiscale(space)
    residual = space.gram @ coeffs - space.load
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(space.load)
    # restated: (f, b_a) - a(u_ms, b_a) vanishes for every basis function
    per_basis = space.basis.T @ (ops.load - ops.stiffness_coeff @ fine)
    assert np.abs(per_basis).max() <= 1e-10


def test_orthogonal_splitting(problem, rng):
    hier, ops, interp = problem
    cs = global_corrector_set(hier, ops, interp)
    space = build_multiscale_space(hier, ops, cs)
    P = hier.prolongation_interior
    C = interior_interpolation(hier, interp)
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
    gs = global_corrector_set(hier, ops, interp)
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
    cs = global_corrector_set(hier, ops, interp)
    space = build_multiscale_space(hier, ops, cs)
    space_pg = build_multiscale_space(hier, ops, cs, "petrov_galerkin")
    np.testing.assert_allclose(space_pg.gram.toarray(), space.gram.toarray(),
                               atol=1e-10)
    c_pg, u_pg = solve_multiscale(space_pg)
    residual = space_pg.gram @ c_pg - space_pg.load
    assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(space_pg.load)
    # both variants approximate the same fine solution to first order
    u_ref = solve_reference(hier.fine, ops)
    _, u_g = solve_multiscale(space)
    err_pg = error_norms(hier.fine, u_pg, u_ref, ops)[1]
    err_g = error_norms(hier.fine, u_g, u_ref, ops)[1]
    assert err_pg <= 2.0 * err_g
    with pytest.raises(ValueError, match="unknown solve mode"):
        build_multiscale_space(hier, ops, cs, "petrov")


def test_multiscale_convergence_with_global_correctors():
    fine = build_uniform_mesh(32)
    coeff = make_checkerboard(8, 100.0, 1, fine)
    ops = build_operators(fine, coeff, lambda x, y: x)
    u_ref = solve_reference(fine, ops)
    errors = []
    for nc in (4, 8):
        hier = refine_hierarchy(build_uniform_mesh(nc), build_uniform_mesh(32))
        interp = build_interpolation(hier)
        cs = global_corrector_set(hier, ops, interp)
        _, u_ms = solve_multiscale(build_multiscale_space(hier, ops, cs))
        errors.append(error_norms(fine, u_ms, u_ref, ops)[1])
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
    hier = refine_hierarchy(build_uniform_mesh(8), build_uniform_mesh(32))
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
    space = MultiscaleSpace(
        basis=sparse.identity(3, format="csr"),
        gram=sparse.csr_matrix([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0],
                                [0.0, 0.0, 1.0]]),
        load=np.ones(3), mode="petrov_galerkin")
    with pytest.raises(SolverFailure):
        solve_multiscale(space)


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
@pytest.mark.parametrize("refinements", [1, 2, 3])
def test_patch_templates_match_element_patch(coarse_n, refinements):
    """For every element, at orders 1 to 3: its translated class template
    has element_patch's dofs, listed in the template's elimination order
    (the mesh order restricted to the template's patch), and the constraint
    rows and element nodes element_patch gives; its gathered blocks hold the
    entries and values of scipy's fancy-indexed blocks, both sides with
    sorted indices; its right-hand side equals the hats' stiffness on its
    children.  The constraint block of each class has full row rank."""
    hier = refine_hierarchy(build_uniform_mesh(coarse_n),
                            build_uniform_mesh(coarse_n * 2 ** refinements))
    coarse, fine = hier.coarse, hier.fine
    coeff = make_checkerboard(fine.cells_per_side, 1e4, 3, fine)
    ops = build_operators(fine, coeff, lambda x, y: x)
    interp = build_interpolation(hier)
    interior = interior_interpolation(hier, interp)
    rank = np.argsort(fine.elimination_order)
    seeds = np.flatnonzero((coarse.interior_index[coarse.triangles] >= 0).any(axis=1))

    def canonical(matrix):
        matrix = matrix.copy()
        matrix.sort_indices()
        return matrix

    for order in (1, 2, 3):
        solver = lod._PatchSolver(hier, ops, interp, order, 1e-10)
        checked = 0
        for stack in solver.stacks(seeds):
            t, members = stack
            assert np.all(np.diff(rank[t.dofs]) > 0)
            dofs, rows, nodes, a, c, rhs = solver.gather(stack)
            # full row rank, so that the Schur complement is SPD
            sigma = np.linalg.svd(t.C.matrix(c[0]).toarray(), compute_uv=False)
            assert sigma.min() >= 1e-3 * sigma.max()
            for p, element in enumerate(members):
                patch = element_patch(hier, int(element), order)
                np.testing.assert_array_equal(np.sort(dofs[p]),
                                              patch.fine_interior_dofs)
                assert np.unique(dofs[p] - t.dofs).size == 1
                C = interior[coarse.interior_index[
                    patch.active_coarse_nodes]][:, dofs[p]]
                active = coarse.interior_index[patch.active_coarse_nodes]
                np.testing.assert_array_equal(
                    rows[p], active[np.diff(C.indptr) > 0])
                C = C[np.flatnonzero(np.diff(C.indptr))]
                A = ops.stiffness_coeff[dofs[p]][:, dofs[p]]
                for expected, got in ((A, t.A.matrix(a[p])), (C, t.C.matrix(c[p]))):
                    expected, got = canonical(expected), canonical(got)
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


@pytest.mark.parametrize("fine_n, coarse_n, order",
                         [(64, 8, 1), (64, 16, 3), (32, 4, 1)])
def test_rank_gather_equals_entry_lookup(fine_n, coarse_n, order):
    """Each member's stiffness and constraint values, read at its
    template's ranks (one byte each), are bit for bit the values a key
    search finds at the member's entries of the fine stiffness and of
    the quasi-interpolation on the fine interior dofs."""
    hier = refine_hierarchy(build_uniform_mesh(coarse_n),
                            build_uniform_mesh(fine_n))
    coeff = make_checkerboard(fine_n, 1e4, 3, hier.fine)
    ops = build_operators(hier.fine, coeff, lambda x, y: x)
    interp = build_interpolation(hier)
    C = interior_interpolation(hier, interp)
    solver = lod._PatchSolver(hier, ops, interp, order, 1e-10)
    coarse = hier.coarse
    seeds = np.flatnonzero((coarse.interior_index[coarse.triangles] >= 0).any(axis=1))
    checked = 0
    for stack in solver.stacks(seeds):
        t, members = stack
        assert t.A.ranks.dtype == t.C.ranks.dtype == np.uint8
        dofs, rows, _, a, c, _ = solver.gather(stack)
        a_rows = np.repeat(np.arange(t.dofs.size), np.diff(t.A.indptr))
        assert np.array_equal(a, entry_values(ops.stiffness_coeff,
                                              dofs[:, a_rows],
                                              dofs[:, t.A.indices]))
        c_rows = np.repeat(np.arange(t.rows.size), np.diff(t.C.indptr))
        assert np.array_equal(c, entry_values(C, rows[:, c_rows],
                                              dofs[:, t.C.indices]))
        checked += members.size
    assert checked == seeds.size


@pytest.mark.parametrize("block", ["stiffness", "constraint"])
def test_row_layout_unlike_the_template_is_rejected(block):
    """The same fine stiffness or quasi-interpolation matrix with one row's
    entries stored in reverse, in a member's patch away from its template,
    fails the gather of that member with RuntimeError; the canonical matrix
    gathers it."""
    hier = refine_hierarchy(build_uniform_mesh(8), build_uniform_mesh(16))
    ops = build_operators(hier.fine, make_checkerboard(16, 100.0, 1, hier.fine),
                          lambda x, y: x)
    interp = build_interpolation(hier)
    solver = lod._PatchSolver(hier, ops, interp, 1, 1e-10)
    seeds = np.flatnonzero(
        (hier.coarse.interior_index[hier.coarse.triangles] >= 0).any(axis=1))
    stack = next(s for s in solver.stacks(seeds) if s[1].size >= 2)
    solver.gather(stack)
    dofs, rows, _ = solver.place(stack)
    # the second member's first dof, or its first constraint row
    S, row = ((ops.stiffness_coeff, dofs[1, 0]) if block == "stiffness"
              else (interp, rows[1, 0]))
    indices, data = S.indices.copy(), S.data.copy()
    lo, hi = S.indptr[row], S.indptr[row + 1]
    indices[lo:hi], data[lo:hi] = indices[lo:hi][::-1], data[lo:hi][::-1]
    reversed_row = sparse.csr_matrix((data, indices, S.indptr), shape=S.shape)
    assert (reversed_row != S).nnz == 0
    if block == "stiffness":
        ops = dataclasses.replace(ops, stiffness_coeff=reversed_row)
    else:
        interp = reversed_row
    solver = lod._PatchSolver(hier, ops, interp, 1, 1e-10)
    stack = next(s for s in solver.stacks(seeds) if s[1].size >= 2)
    with pytest.raises(RuntimeError, match="differ from their template"):
        solver.gather(stack)


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
    """A stack whose third member's patch stiffness is zero fails, and the
    failure names that member's element: a dense stack, a SuperLU stack of
    several members, and either solved by two workers.  The failing element
    is chosen here, in the parent, as no state a worker changes comes
    back."""
    hier = refine_hierarchy(build_uniform_mesh(8), build_uniform_mesh(16))
    ops = build_operators(hier.fine, make_checkerboard(16, 100.0, 1, hier.fine),
                          lambda x, y: x)
    interp = build_interpolation(hier)
    seeds = np.flatnonzero(
        (hier.coarse.interior_index[hier.coarse.triangles] >= 0).any(axis=1))
    _two_cpus(monkeypatch)
    gather = lod._PatchSolver.gather
    for dense_max, threads, reason in [
            (lod._DENSE_MAX_DOFS, 1, "not positive definite"),
            (0, 1, "exactly singular"),
            (lod._DENSE_MAX_DOFS, 2, "not positive definite"),
            (0, 2, "exactly singular")]:
        monkeypatch.setattr(lod, "_DENSE_MAX_DOFS", dense_max)
        solver = lod._PatchSolver(hier, ops, interp, 1, 1e-10)
        t, members = next(s for s in solver.stacks(seeds) if s[1].size >= 3)
        assert (t.dofs.size <= lod._DENSE_MAX_DOFS) == (dense_max > 0)
        failing = members[2]

        def third_member_zeroed(self, stack, failing=failing):
            dofs, rows, nodes, a, c, rhs = gather(self, stack)
            a[stack[1] == failing] = 0.0
            return dofs, rows, nodes, a, c, rhs

        monkeypatch.setattr(lod._PatchSolver, "gather", third_member_zeroed)
        with pytest.raises(SolverFailure, match=reason) as failure:
            assemble_corrector_set(hier, ops, interp, order=1, threads=threads)
        assert str(failure.value).startswith(
            f"corrector patch of element {failing}: ")


@pytest.mark.parametrize("coarse_n", [4, 8])
def test_global_projection_matches_dense_kkt_oracle(coarse_n):
    """The whole-domain projection of every prolonged hat at fine 16, solved
    in the elimination order, equals the dense KKT solve of b = A p in the
    dofs' own order to 1e-13 relative, and lies in the kernel of the
    quasi-interpolation."""
    hier = refine_hierarchy(build_uniform_mesh(coarse_n),
                            build_uniform_mesh(16))
    ops = build_operators(hier.fine, make_checkerboard(4, 100.0, 1, hier.fine),
                          lambda x, y: x)
    interp = build_interpolation(hier)
    P = hier.prolongation_interior.toarray()
    x = lod._kernel_projection(hier, ops, interp, P, 1e-10, "global")
    A = ops.stiffness_coeff.toarray()
    C = interior_interpolation(hier, interp).toarray()
    expected, _ = dense_kkt_solve(A, C, A @ P)
    assert np.abs(x - expected).max() <= 1e-13 * np.abs(expected).max()
    assert np.abs(C @ x).max() <= 1e-13 * np.abs(x).max()


def test_kkt_matrix_is_the_block_matrix(problem, monkeypatch):
    """The KKT matrix SuperLU factorizes equals, bit for bit, the bmat of
    the A and C it was built from: for every SuperLU patch of the fine 32 /
    coarse 4 order-1 corrector set, and for the whole-domain projection at
    fine 16 / coarse 4, whose A and C are the fine stiffness and the
    quasi-interpolation in the elimination order."""
    kkt, splu, built, factorized = linalg._kkt, linalg.spla.splu, [], []

    def recorded_kkt(A, C):
        K = kkt(A, C)
        built.append((A, C, K, K.copy()))
        return K

    def recorded_splu(K, **options):
        factorized.append(K)
        return splu(K, **options)

    monkeypatch.setattr(linalg, "_kkt", recorded_kkt)
    monkeypatch.setattr(linalg.spla, "splu", recorded_splu)
    hier = refine_hierarchy(build_uniform_mesh(4), build_uniform_mesh(32))
    ops = build_operators(hier.fine, make_checkerboard(4, 100.0, 1, hier.fine),
                          lambda x, y: x)
    assemble_corrector_set(hier, ops, build_interpolation(hier), order=1)
    patches = len(built)
    hier, ops, interp = problem
    lod._kernel_projection(hier, ops, interp,
                           np.ones(hier.fine.n_interior), 1e-10, "global")
    assert patches > 0 and len(built) == len(factorized) == patches + 1
    assert all(K is L for (_, _, K, _), L in zip(built, factorized))
    for A, C, _, K in built:
        expected = kkt_matrix(A, C)
        assert K.format == "csc" and K.shape == expected.shape
        assert np.array_equal(K.indptr, expected.indptr)
        assert np.array_equal(K.indices, expected.indices)
        assert K.data.tobytes() == expected.data.tobytes()
    A, C, _, _ = built[-1]
    order = hier.fine.elimination_order
    S = ops.stiffness_coeff[order][:, order]
    assert (A != S).nnz == 0 and \
        (C != interior_interpolation(hier, interp)[:, order]).nnz == 0


def _global_row(fine_n, coarse_n, contrast, seed):
    """Hierarchy, operators, reference solution and the harness's global
    row (errors, count, solution) of one checkerboard problem."""
    hier = refine_hierarchy(build_uniform_mesh(coarse_n),
                            build_uniform_mesh(fine_n))
    ops = build_operators(hier.fine,
                          make_checkerboard(fine_n, contrast, seed, hier.fine),
                          lambda x, y: x)
    interp = build_interpolation(hier)
    u_ref = solve_reference(hier.fine, ops)
    row = harness._solve_level(ExperimentConfig(fine_n=fine_n), hier, ops,
                               interp, u_ref, 1, None)
    return hier, ops, interp, u_ref, row


@settings(max_examples=10)
@given(fine_n=st.sampled_from([16, 32]), coarse_n=st.sampled_from([4, 8]),
       log_contrast=st.floats(0.0, 6.0), seed=st.integers(0, 2 ** 32 - 1))
def test_global_row_is_the_galerkin_solution(fine_n, coarse_n, log_contrast,
                                             seed):
    """The harness's global row, u_ref less its kernel projection, equals
    the Galerkin solution on the space of the assembled global correctors
    to 1e-10 relative, in the solution and in each error norm."""
    hier, ops, interp, u_ref, (errors, count, u_row) = _global_row(
        fine_n, coarse_n, 10.0 ** log_contrast, seed)
    assert count == hier.coarse.n_interior
    cs = global_corrector_set(hier, ops, interp)
    _, u_ms = solve_multiscale(build_multiscale_space(hier, ops, cs))
    assert np.linalg.norm(u_row - u_ms) <= 1e-10 * np.linalg.norm(u_ms)
    for got, expected in zip(errors,
                             error_norms(hier.fine, u_ms, u_ref, ops)):
        assert abs(got - expected) <= 1e-10 * expected


@pytest.mark.parametrize("coarse_n", [8, 16])
def test_global_row_memory_peak(coarse_n):
    """The global row at fine 64 holds at most 1.9 (coarse 8) and 0.3
    (coarse 16) dense n_fine_interior x n_coarse_interior arrays' worth of
    memory at once.  Its projection keeps no n x m array: it holds the
    stiffness and the constraints permuted into the elimination order and
    the KKT matrix built from them (about 1.0 and 0.24 such arrays)."""
    arrays = {8: 1.9, 16: 0.3}[coarse_n]
    hier, ops, interp, u_ref, _ = _global_row(64, coarse_n, 20.0, 10)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        harness._solve_level(ExperimentConfig(fine_n=64), hier, ops, interp,
                             u_ref, 1, None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= arrays * 8 * hier.fine.n_interior * hier.coarse.n_interior


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
                            build_uniform_mesh(fine_n))
    coeff = make_checkerboard(fine_n, 10.0 ** log_contrast, seed, hier.fine)
    ops = build_operators(hier.fine, coeff, lambda x, y: x)
    interp = build_interpolation(hier)
    cs = global_corrector_set(hier, ops, interp) if order is None else \
        assemble_corrector_set(hier, ops, interp, order=order)
    gram = build_multiscale_space(hier, ops, cs).gram.toarray()
    assert np.abs(gram - gram.T).max() <= 1e-12 * np.abs(gram).max()
    np.linalg.cholesky(gram)
