"""Smoke test of the benchmark's traced run against the current program.

`perfbench/child.py` wraps the names the program looks up at its module
boundaries; if a refactor stops calling through one of them, `--trace 1`
silently loses that layer.  This runs the child on a tiny sweep and checks
that the corrector layers still show up as spans.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")

CONFIG = ("fine_n = 16\ncoarse_n = 4\nlevels = 1\nrhs = x\n"
          "coeff_kind = checkerboard\ncoeff_cell = 16\ntimings = off\n")

EXPECTED = {
    "localized": {"linalg.SaddleFactorization", "mesh.element_patch",
                  "fem.apply_subset_stiffness", "lod.assemble_corrector_set"},
    "global": {"linalg.SaddleFactorization"},
}


@pytest.mark.parametrize("mode", sorted(EXPECTED))
def test_traced_child_records_corrector_spans(tmp_path, mode):
    config = tmp_path / "sweep.cfg"
    config.write_text(CONFIG + f"mode = {mode}\n")
    result, spans = tmp_path / "result.json", tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, CHILD, str(result), str(spans),
         "convergence", "--config", str(config)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(result.read_text())["exit_code"] == 0
    names = {json.loads(line)["name"]
             for line in spans.read_text().splitlines() if line.strip()}
    assert EXPECTED[mode] <= names, EXPECTED[mode] - names
