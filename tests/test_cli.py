from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lodfem import ConfigError, ExperimentConfig, harness, linalg, lod, \
    parse_config
from lodfem.cli import main
from lodfem.config import DESK_PRESET, MODES, PAPER_PRESET, RHS_NAMES, \
    TIMING_MODES
from lodfem.harness import CSV_HEADER, run_coeff_export, run_convergence, \
    run_decay, run_solve

import oracles


def serialize_config(cfg):
    """Every field of `cfg` as key = value lines (lists comma separated)."""
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if f.type is tuple:
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def cfg(**kw):
    return ExperimentConfig(**{**dict(
        fine_n=32, coarse_n=(4, 8), levels=(1,), mode="localized",
        rhs="x", coeff_kind="checkerboard", coeff_cell=8,
        coeff_contrast=100.0, seed=1, timings="off"), **kw}).validate()


def test_config_round_trip():
    c = cfg(decay_factors=(2, 3, 4), out="results.csv")
    assert parse_config(serialize_config(c)) == c
    assert parse_config(serialize_config(DESK_PRESET)) == DESK_PRESET
    assert parse_config(serialize_config(PAPER_PRESET)) == PAPER_PRESET


# Text values may hold what the format reserves: `#` starts a comment, line
# breaks end the value, and surrounding blanks are stripped.
_TEXT = st.text("abcxyz0189._/- =#\t\n", max_size=12)
_FLOAT = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def configs(draw):
    fine_power = draw(st.integers(2, 9))
    return ExperimentConfig(
        fine_n=2 ** fine_power,
        coarse_n=tuple(2 ** q for q in draw(
            st.lists(st.integers(1, fine_power - 1), min_size=1, max_size=4,
                     unique=True))),
        levels=tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=4,
                                   unique=True))),
        mode=draw(st.sampled_from(MODES)),
        rhs=draw(st.sampled_from(RHS_NAMES)),
        coeff_kind=draw(st.sampled_from(("constant", "periodic",
                                         "checkerboard"))),
        coeff_constant=draw(_FLOAT),
        coeff_epsilon=draw(_FLOAT),
        coeff_amplitude=draw(_FLOAT),
        coeff_cell=draw(st.integers(-10, 10 ** 6)),
        coeff_contrast=draw(_FLOAT),
        seed=draw(st.integers(-2 ** 63, 2 ** 63)),
        tol=draw(st.floats(0.0, 1.0, exclude_min=True)),
        threads=draw(st.integers(1, 64)),
        timings=draw(st.sampled_from(TIMING_MODES)),
        decay_factors=tuple(draw(st.lists(st.integers(2, 100), max_size=4,
                                          unique=True))),
        decay_node=draw(st.one_of(st.just("center"),
                                  st.integers(0, 10 ** 6).map(str))),
        out=draw(_TEXT),
        solution_out=draw(_TEXT),
    )


def _representable(text):
    return "#" not in text and "\n" not in text and text == text.strip()


@given(configs())
def test_config_round_trip_property(c):
    """A config with a text value the format cannot hold or with unordered
    decay factors is a ConfigError; every other config round-trips exactly."""
    if not (_representable(c.out) and _representable(c.solution_out)
            and list(c.decay_factors) == sorted(c.decay_factors)):
        with pytest.raises(ConfigError):
            c.validate()
        return
    assert parse_config(serialize_config(c.validate())) == c


@pytest.mark.parametrize("field,value", [("out", "run#1.csv"),
                                         ("solution_out", " lead.csv")])
def test_config_rejects_text_that_cannot_round_trip(field, value):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(**{field: value}).validate()


def test_config_field_types_are_parseable():
    """The parser reads each field by its annotation, so every annotation
    must be one it handles; a bool field would parse "False" as True."""
    for f in fields(ExperimentConfig):
        assert f.type in (int, float, str, tuple), (f.name, f.type)


def test_config_comments_and_overrides():
    text = "# comment\nfine_n = 16\ncoarse_n = 4, 8   # inline\n"
    c = parse_config(text)
    assert c.fine_n == 16 and c.coarse_n == (4, 8)


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("nope = 3\n")


def test_config_rejects_bad_value():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("fine_n = many\n")


def test_config_rejects_broken_nesting():
    with pytest.raises(ConfigError, match="2\\^k"):
        cfg(fine_n=48, coarse_n=(4, 7))
    with pytest.raises(ConfigError, match="2\\^k"):
        cfg(fine_n=32, coarse_n=(32,))  # needs at least one refinement


def test_config_rejects_bad_mode_and_rhs():
    with pytest.raises(ConfigError, match="mode"):
        cfg(mode="magic")
    with pytest.raises(ConfigError, match="rhs"):
        cfg(rhs="y")


def test_presets_valid():
    DESK_PRESET.validate()
    PAPER_PRESET.validate()
    assert PAPER_PRESET.fine_n == 256
    assert PAPER_PRESET.coarse_n == (8, 16, 32, 64)
    assert PAPER_PRESET.levels == (1, 2, 3)


def test_run_solve_zero_rhs(tmp_path):
    out = tmp_path / "row.csv"
    report = run_solve(cfg(rhs="zero", coarse_n=(4,), out=str(out)))
    assert len(report.rows) == 2  # baseline plus one patch order
    for row in report.rows:
        assert row.err_l2 == row.err_h1 == row.err_energy == 0.0
    assert out.read_text().startswith(CSV_HEADER)


def test_run_solve_solution_export(tmp_path):
    sol = tmp_path / "solution.txt"
    c = cfg(coarse_n=(4,), solution_out=str(sol))
    run_solve(c)
    lines = sol.read_text().splitlines()
    assert len(lines) == 33 * 33  # fine vertices, x y value per line


def test_convergence_csv_format_and_determinism(tmp_path):
    c = cfg(out=str(tmp_path / "a.csv"))
    report = run_convergence(c)
    text_a = (tmp_path / "a.csv").read_text()
    assert text_a.splitlines()[0] == CSV_HEADER
    # rows in ascending (coarse size, level) order, baseline level 0 included
    keys = [(r.coarse_n, r.level) for r in report.rows]
    assert keys == [(4, 0), (4, 1), (8, 0), (8, 1)]
    run_convergence(cfg(out=str(tmp_path / "b.csv")))
    assert text_a == (tmp_path / "b.csv").read_text()
    # thread count must not change a single byte
    run_convergence(cfg(out=str(tmp_path / "c.csv"), threads=3))
    assert text_a == (tmp_path / "c.csv").read_text()


def test_convergence_single_coarse_size_has_nan_orders():
    report = run_convergence(cfg(coarse_n=(8,)))
    assert all(np.isnan(row.order_l2) and np.isnan(row.order_h1)
               for row in report.rows)
    line = report.csv_text().splitlines()[1]
    assert ",nan," in line


def test_convergence_baseline_first_order_for_unit_coefficient():
    c = cfg(fine_n=64, coarse_n=(4, 8, 16), levels=(1,),
            coeff_kind="constant", coeff_constant=1.0, rhs="manufactured")
    report = run_convergence(c)
    baseline_orders = [row.order_h1 for row in report.rows
                       if row.level == 0 and not np.isnan(row.order_h1)]
    assert len(baseline_orders) == 2
    assert all(abs(o - 1.0) <= 0.1 for o in baseline_orders), baseline_orders


def test_convergence_more_layers_not_worse():
    c = cfg(fine_n=32, coarse_n=(8,), levels=(1, 3))
    report = run_convergence(c)
    errs = {row.level: row.err_h1 for row in report.rows}
    assert errs[3] <= errs[1]


def test_global_and_petrov_modes():
    reports = {}
    for mode in ("global", "localized", "petrov"):
        report = run_convergence(cfg(fine_n=32, coarse_n=(8,), levels=(2,),
                                     mode=mode))
        row = next(r for r in report.rows if r.level == 2)
        assert np.isfinite(row.err_h1) and row.err_h1 > 0
        reports[mode] = row
    assert reports["global"].corrector_count == 49   # one per interior node
    assert reports["localized"].corrector_count == \
        reports["petrov"].corrector_count
    # all three variants land in the same error ballpark
    errs = [r.err_h1 for r in reports.values()]
    assert max(errs) <= 5.0 * min(errs)


@pytest.mark.parametrize("mode", ["localized", "global"])
def test_wall_timings(tmp_path, mode):
    """With `timings = wall` every solved row has its seconds; a global row
    copied to a later level has 0."""
    out = tmp_path / "wall.csv"
    report = run_convergence(cfg(coarse_n=(4,), levels=(1, 2), mode=mode,
                                 timings="wall", out=str(out)))
    assert [row.seconds > 0 for row in report.rows] == \
        [True, True, mode == "localized"]
    written = [float(line.split(",")[-1])
               for line in out.read_text().splitlines()[1:]]
    assert written == [float(f"{row.seconds:.12g}") for row in report.rows]


def test_global_correctors_assembled_once_per_coarse_size(monkeypatch):
    """A global sweep assembles no corrector set: each coarse size makes one
    constrained projection, of the reference solution, whose row every
    positive level shares."""
    projected = []

    def assembling(*args, **kwargs):
        raise AssertionError("a global sweep assembles no corrector set")

    solve = linalg.SaddleFactorization.solve

    def counting_solve(self, b, *args, **kwargs):
        if self.m:  # a constrained solve, not the reference or coarse solve
            projected.append((self.m, np.shape(b)))
        return solve(self, b, *args, **kwargs)

    monkeypatch.setattr(lod, "assemble_corrector_set", assembling)
    monkeypatch.setattr(linalg.SaddleFactorization, "solve", counting_solve)
    report = run_convergence(cfg(fine_n=32, coarse_n=(4, 8), levels=(1, 2),
                                 mode="global"))
    # one projection per coarse size, of one fine vector, with the 9 and 49
    # coarse interior nodes as constraints
    assert projected == [(9, (31 * 31,)), (49, (31 * 31,))]
    errors = {(r.coarse_n, r.level): (r.err_l2, r.err_h1, r.err_energy)
              for r in report.rows}
    assert errors[4, 1] == errors[4, 2] and errors[8, 1] == errors[8, 2]


def test_h1_rate_along_the_log_order_diagonal():
    """Where the patch order grows like log(1/H), as the paper's estimate
    asks, the desk problem converges at first order in H1: (4,1) -> (8,2)
    -> (16,3) observes order_h1 of at least 0.8 on each step."""
    orders = oracles.diagonal_orders(DESK_PRESET, [(4, 1), (8, 2), (16, 3)])
    assert len(orders) == 2 and min(orders) >= 0.8, orders


def test_rhs_selector_one():
    report = run_solve(cfg(fine_n=16, coarse_n=(4,), coeff_cell=8, rhs="one"))
    assert all(np.isfinite(r.err_h1) and r.err_h1 > 0 for r in report.rows)


def test_decay_run(tmp_path):
    out = tmp_path / "decay.csv"
    c = cfg(fine_n=32, coarse_n=(8,), coeff_contrast=1000.0,
            out=str(out))
    tails, text = run_decay(c)
    lines = text.splitlines()
    assert lines[0] == "radius,tail_h1,ratio"
    radii = [float(l.split(",")[0]) for l in lines[1:]]
    values = [float(l.split(",")[1]) for l in lines[1:]]
    ratios = [float(l.split(",")[2]) for l in lines[1:]]
    assert radii == [m / 8 for m in range(2, 12)]  # up to the domain diameter
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0
    assert np.isnan(ratios[0])
    assert all(r < 1 for r in ratios[1:] if not np.isnan(r))
    assert out.read_text() == text


def test_decay_custom_factors_and_node():
    c = cfg(fine_n=32, coarse_n=(8,), decay_factors=(2, 3, 4),
            decay_node="40")  # vertex (4, 4) on the coarse 8-grid
    tails, _ = run_decay(c)
    assert [r for r, _ in tails] == [0.25, 0.375, 0.5]
    with pytest.raises(ConfigError):
        run_decay(cfg(coarse_n=(8,), decay_node="0"))  # boundary vertex


def test_cli_decay_prints_tails(tmp_path, capsys):
    config = tmp_path / "decay.cfg"
    config.write_text("fine_n = 16\ncoarse_n = 4\ncoeff_cell = 8\n"
                      "decay_factors = 2,3\n")
    assert main(["decay", "--config", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "radius        tail_h1"
    assert [float(line.split()[0]) for line in lines[1:]] == [0.5, 0.75]
    assert all(float(line.split()[1]) >= 0 for line in lines[1:])


def test_coeff_export_runs(tmp_path):
    out = tmp_path / "coeff.txt"
    c = cfg(fine_n=16, coeff_cell=8, out=str(out))
    run_coeff_export(c)
    lines = out.read_text().splitlines()
    assert len(lines) == 2 * 16 * 16
    values = {line.split()[2] for line in lines}
    assert len(values) <= 64  # at most cell^2 distinct block values
    run_coeff_export(c)
    assert out.read_text().splitlines() == lines


def test_coeff_export_constant_all_equal(tmp_path):
    out = tmp_path / "const.txt"
    run_coeff_export(cfg(fine_n=16, coeff_kind="constant",
                         coeff_constant=2.5, out=str(out)))
    values = {line.split()[2] for line in out.read_text().splitlines()}
    assert values == {"2.5"}


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("fine_n = 48\ncoarse_n = 7\n")
    assert main(["convergence", "--config", str(bad)]) == 1

    good = tmp_path / "good.cfg"
    good.write_text("fine_n = 16\ncoarse_n = 4\nlevels = 1\n"
                    "coeff_cell = 8\ntimings = off\n")
    out = tmp_path / "out.csv"
    assert main(["solve", "--config", str(good), "--out", str(out)]) == 0
    assert out.exists()

    assert main(["coeff-export", "--config", str(good),
                 "--out", str(tmp_path / "c.txt")]) == 0


def test_cli_missing_config_file():
    assert main(["solve", "--config", "/nonexistent/x.cfg"]) == 1


@pytest.mark.parametrize("command, text, flags", [
    ("convergence", "fine_n = 64\ncoarse_n = 8\ncoeff_cell = 48\n", []),
    ("convergence", "fine_n = 16\ncoarse_n = 4\ncoeff_kind = periodic\n"
                    "coeff_amplitude = 0.5\n", []),
    ("decay", "fine_n = 16\ncoarse_n = 4\ncoeff_cell = 8\n"
              "decay_node = 99999\n", []),
    ("decay", "fine_n = 16\ncoarse_n = 4\ncoeff_cell = 8\n"
              "decay_node = \u00b2\n", []),
    ("coeff-export", "fine_n = 16\ncoarse_n = 4\ncoeff_cell = 8\n",
     ["--out", "c.txt", "--threads", "0"]),
    ("decay", "fine_n = 16\ncoarse_n = 4\ncoeff_cell = 8\n"
              "decay_factors = 3, 2\n", []),
    ("convergence", "fine_n = 16\ncoarse_n = 4, 4\ncoeff_cell = 8\n", []),
    ("convergence", "fine_n = 16\ncoarse_n = 4\nlevels = 1, 1\n"
                    "coeff_cell = 8\n", []),
    ("solve", "fine_n = 16\ncoarse_n = 4\ncoeff_cell = 8\ntol = nan\n", []),
    ("convergence", "fine_n = 16\ncoarse_n = 4\ncoeff_cell = 8\n"
                    "coeff_contrast = inf\n", []),
    ("convergence", b"fine_n = 16\xff\n", []),
], ids=["coeff_cell", "coeff_amplitude", "decay_node",
        "decay_node_superscript_digit", "threads_zero",
        "decay_factors_unordered", "coarse_n_repeated", "levels_repeated",
        "tol_nan", "contrast_inf", "not_utf8"])
def test_cli_bad_inputs_are_config_errors(tmp_path, monkeypatch, capsys,
                                          command, text, flags):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "bad.cfg"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main([command, "--config", str(path), *flags]) == 1
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("command, key", [
    ("convergence", "out"), ("solve", "solution_out"), ("decay", "out"),
    ("coeff-export", "out")])
def test_output_path_is_checked_before_any_work(tmp_path, monkeypatch, capsys,
                                                command, key):
    """An output path in a missing directory, or naming a directory, is a
    config error found before any mesh is built."""
    def building(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(harness, "build_uniform_mesh", building)
    config = tmp_path / "run.cfg"
    for path in (tmp_path / "missing" / "out.txt", tmp_path):
        config.write_text("fine_n = 16\ncoarse_n = 4\nlevels = 1\n"
                          f"coeff_cell = 8\n{key} = {path}\n")
        assert main([command, "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and not captured.out


def test_solver_failure_outside_the_rows_writes_no_csv(tmp_path, capsys):
    """A reference solve that fails (a coefficient so small that the fine
    stiffness is exactly singular) ends the run with exit code 2, its reason
    on stderr, and no CSV."""
    config = tmp_path / "run.cfg"
    config.write_text("fine_n = 8\ncoarse_n = 4\ncoeff_kind = constant\n"
                      "coeff_constant = 1e-320\ncoeff_cell = 8\n")
    out = tmp_path / "run.csv"
    assert main(["convergence", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("solver failure:")
    assert not out.exists()


def test_failed_row_says_why(tmp_path, monkeypatch, capsys):
    """A corrector solve that fails gives a NaN row, exit code 2, and its
    reason on stderr."""
    def failing(*args, **kwargs):
        raise lod.SolverFailure("corrector patch of element 7: forced")

    monkeypatch.setattr(lod, "assemble_corrector_set", failing)
    config = tmp_path / "run.cfg"
    config.write_text("fine_n = 16\ncoarse_n = 4\nlevels = 1\ncoeff_cell = 8\n"
                      "timings = off\n")
    out = tmp_path / "run.csv"
    assert main(["convergence", "--config", str(config), "--out", str(out)]) == 2
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[:2] for row in rows] == [["4", "0"], ["4", "1"]]
    assert np.isfinite(float(rows[0][2])) and rows[1][2:5] == ["nan"] * 3
    assert capsys.readouterr().err == (
        "row coarse_n=4 level=1 failed: corrector patch of element 7: forced\n")


def test_failed_global_row_says_why(tmp_path, monkeypatch, capsys):
    """A projection that fails in global mode gives NaN rows for the levels
    that share it, its reason on stderr once, and exit code 2."""
    solve = linalg.SaddleFactorization.solve

    def failing(self, *args, **kwargs):
        if self.m:  # the projection fails, the unconstrained solves do not
            raise lod.SolverFailure("forced")
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(linalg.SaddleFactorization, "solve", failing)
    config = tmp_path / "run.cfg"
    config.write_text("fine_n = 16\ncoarse_n = 4\nlevels = 1,2\nmode = global\n"
                      "coeff_cell = 8\ntimings = off\n")
    out = tmp_path / "run.csv"
    assert main(["convergence", "--config", str(config), "--out", str(out)]) == 2
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[:2] for row in rows] == [["4", "0"], ["4", "1"], ["4", "2"]]
    assert np.isfinite(float(rows[0][2]))
    assert rows[1][2:5] == rows[2][2:5] == ["nan"] * 3
    assert capsys.readouterr().err == (
        "row coarse_n=4 level=1 failed: global projection: forced\n")


def test_failed_solve_row_exits_2(tmp_path, monkeypatch, capsys):
    """`solve` keeps the failed-row contract of `convergence`: its failed row
    is written as NaN errors and the run exits 2."""
    def failing(*args, **kwargs):
        raise lod.SolverFailure("forced")

    monkeypatch.setattr(lod, "assemble_corrector_set", failing)
    config = tmp_path / "run.cfg"
    config.write_text("fine_n = 16\ncoarse_n = 4\nlevels = 1\ncoeff_cell = 8\n"
                      "timings = off\n")
    out = tmp_path / "row.csv"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 2
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert rows[-1][:2] == ["4", "1"] and rows[-1][2:5] == ["nan"] * 3
    assert "failed: forced" in capsys.readouterr().err


@pytest.mark.parametrize("contrast", ["1e6", "1e8"])
def test_localized_sweep_holds_up_at_high_contrast(tmp_path, contrast):
    """Every corrector row of a localized sweep completes at contrasts of
    1e6 and above, and the energy error falls with the patch order."""
    config = tmp_path / "sweep.cfg"
    config.write_text("fine_n = 64\ncoarse_n = 8\nlevels = 1,2,3\nrhs = x\n"
                      "coeff_kind = checkerboard\ncoeff_cell = 64\nseed = 10\n"
                      f"coeff_contrast = {contrast}\ntimings = off\n")
    out = tmp_path / "sweep.csv"
    assert main(["convergence", "--config", str(config),
                 "--out", str(out)]) == 0
    header, *lines = out.read_text().splitlines()
    columns = header.split(",")
    rows = [dict(zip(columns, map(float, line.split(",")))) for line in lines]
    assert [row["level_l"] for row in rows] == [0, 1, 2, 3]
    errors = [[row[name] for name in ("err_l2", "err_h1", "err_energy")]
              for row in rows]
    assert np.all(np.isfinite(errors))
    energy = [row["err_energy"] for row in rows[1:]]
    assert energy[0] > energy[1] > energy[2], energy
