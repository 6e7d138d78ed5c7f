from dataclasses import replace

import numpy as np
import pytest

from lodfem import ExperimentConfig, build_uniform_mesh, make_checkerboard, \
    make_constant, make_periodic
from lodfem.harness import run_coeff_export


@pytest.fixture(scope="module")
def fine():
    return build_uniform_mesh(16)


def test_constant_field(fine):
    c = make_constant(5.0, fine)
    assert np.all(c.values == 5.0)
    assert c.alpha == c.beta == 5.0


def test_constant_identity_bounds(fine):
    c = make_constant(1.0, fine)
    assert c.alpha == 1.0 and c.beta == 1.0


@pytest.mark.parametrize("bad", [0.0, -2.0])
def test_constant_rejects_nonpositive(fine, bad):
    with pytest.raises(ValueError, match="invalid coefficient"):
        make_constant(bad, fine)


def test_periodic_matches_formula(fine):
    eps, a0 = 1.0, 2.0
    c = make_periodic(eps, a0, fine)
    cx, cy = fine.element_centroids[:, 0], fine.element_centroids[:, 1]
    expected = (a0 + np.cos(2 * np.pi * cx / eps)) * \
               (a0 + np.sin(2 * np.pi * cy / eps))
    np.testing.assert_array_equal(c.values, expected)
    # element centered near (1/4, 1/4): formula gives (2+cos(pi/2))(2+sin(pi/2))=6
    e = int(np.argmin(np.abs(cx - 0.25) + np.abs(cy - 0.25)))
    x, y = fine.element_centroids[e]
    assert c.values[e] == pytest.approx(
        (2 + np.cos(2 * np.pi * x)) * (2 + np.sin(2 * np.pi * y)))


def test_periodic_bounds(fine):
    c = make_periodic(0.25, 2.0, fine)
    assert c.alpha >= 1.0
    assert c.beta <= 9.0
    assert c.alpha == c.values.min() and c.beta == c.values.max()


def test_periodic_rejects_degenerate_amplitude(fine):
    with pytest.raises(ValueError, match="coercivity"):
        make_periodic(0.5, 1.0, fine)
    with pytest.raises(ValueError, match="invalid period"):
        make_periodic(0.0, 2.0, fine)


def test_checkerboard_single_block_is_constant(fine):
    c = make_checkerboard(1, 50.0, 3, fine)
    assert np.unique(c.values).size == 1
    assert c.alpha == c.beta


def test_checkerboard_unit_contrast_is_one(fine):
    c = make_checkerboard(4, 1.0, 7, fine)
    np.testing.assert_array_equal(c.values, np.ones(fine.n_triangles))


def test_checkerboard_deterministic(fine):
    a = make_checkerboard(8, 100.0, 42, fine)
    b = make_checkerboard(8, 100.0, 42, fine)
    assert np.array_equal(a.values, b.values)
    different = make_checkerboard(8, 100.0, 43, fine)
    assert not np.array_equal(a.values, different.values)


def test_checkerboard_block_structure(fine):
    cell = 4
    c = make_checkerboard(cell, 1000.0, 1, fine)
    assert np.unique(c.values).size <= cell * cell
    # every element in one block shares the block value
    bx = np.floor(fine.element_centroids[:, 0] * cell).astype(int)
    by = np.floor(fine.element_centroids[:, 1] * cell).astype(int)
    for b in range(cell * cell):
        mask = (by * cell + bx) == b
        assert np.unique(c.values[mask]).size == 1
    assert c.alpha >= 1.0 and c.beta <= 1000.0


def test_checkerboard_alignment_error(fine):
    with pytest.raises(ValueError, match="alignment"):
        make_checkerboard(3, 10.0, 1, fine)


def test_checkerboard_invalid_contrast(fine):
    with pytest.raises(ValueError, match="invalid contrast"):
        make_checkerboard(4, 0.5, 1, fine)


def test_export_raster(tmp_path, fine):
    cfg = ExperimentConfig(fine_n=fine.cells_per_side, coarse_n=(4,),
                           coeff_cell=8, coeff_contrast=100.0, seed=5)
    path = tmp_path / "coeff.txt"
    c = run_coeff_export(replace(cfg, out=str(path)))
    lines = path.read_text().splitlines()
    assert len(lines) == fine.n_triangles
    x, y, v = map(float, lines[0].split())
    assert x == pytest.approx(fine.element_centroids[0, 0], rel=1e-11)
    assert y == pytest.approx(fine.element_centroids[0, 1], rel=1e-11)
    assert v == pytest.approx(c.values[0], rel=1e-11)
    path2 = tmp_path / "coeff2.txt"
    run_coeff_export(replace(cfg, out=str(path2)))
    assert path.read_bytes() == path2.read_bytes()
