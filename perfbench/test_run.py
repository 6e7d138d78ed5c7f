"""Failure accounting of the benchmark's correctness check.

    python3 -m pytest perfbench/test_run.py -q
"""

import run

SMALL = {"fine_n": 64, "coarse_n": (8,), "mode": "localized", "rhs": "x",
         "coeff_kind": "checkerboard", "coeff_cell": 64, "threads": 1,
         "timings": "off"}


def sweep(**overrides):
    with run.scratch_dir() as workdir:
        return run.run_sweep({**SMALL, **overrides}, run.DEFAULT_SEED, workdir,
                             "test")


def test_solver_failure_row_counts_as_failed():
    # At contrast 1e6 the l=3 corrector solve raises SolverFailure; the
    # harness writes a NaN row for it and the process still exits 0.
    result = sweep(levels=(3,), coeff_contrast=1e6)
    assert (result.attempted, result.failed) == (2, 1)


def test_clean_sweep_reports_no_failed_rows():
    result = sweep(levels=(1,), coeff_contrast=20.0)
    assert result.process.exit_code == 0
    assert (result.attempted, result.failed) == (2, 0)


def test_nonzero_exit_fails_every_row():
    result = sweep(coarse_n=(48,), levels=(1, 2))  # not nested: config error
    assert result.process.exit_code == 1
    assert (result.attempted, result.failed) == (3, 3)


def test_rows_checked_against_recorded_errors_and_coarse_fem():
    config = {"coarse_n": (16,), "levels": (2,)}
    recorded = run.RECORDED["patch-large"]
    l2, h1, energy = recorded[(16, 2)]
    assert run.check_rows(dict(recorded), config, 0, recorded) == (2, 0)
    near = {**recorded, (16, 2): (l2 * (1 + 1e-8), h1, energy)}
    assert run.check_rows(near, config, 0, recorded) == (2, 0)
    moved = {**recorded, (16, 2): (l2 * (1 + 1e-5), h1, energy)}
    assert run.check_rows(moved, config, 0, recorded) == (2, 1)
    # Without recorded values, a patch-order row must still beat coarse FEM.
    worse = {**recorded, (16, 2): (l2, h1, 1.0)}
    assert run.check_rows(worse, config, 0) == (2, 1)
