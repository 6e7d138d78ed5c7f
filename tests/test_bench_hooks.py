"""Smoke test of the benchmark's traced run against the current program.

`perfbench/child.py` wraps the names the program looks up at its module
boundaries; if a refactor stops calling through one of them, `--trace 1`
silently loses that layer.  This runs the child on tiny sweeps and checks
that the corrector layers still show up as spans.
"""

import inspect
import json
import os
import subprocess
import sys

import pytest

from lodfem import lod

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")

CONFIG = ("coarse_n = 4\nlevels = 1\nrhs = x\n"
          "coeff_kind = checkerboard\ncoeff_cell = 16\ntimings = off\n")

# (fine_n, mode) -> span names the traced sweep must record.  At fine 16 no
# patch reaches SuperLU; at fine 32, 8 of the 30 patches have more than
# lod._DENSE_MAX_DOFS dofs, so SuperLU factorizes inside the corrector set.
EXPECTED = {
    "localized": (16, "localized", {
        "linalg.SaddleFactorization", "mesh.element_patch",
        "lod.assemble_corrector_set"}),
    "global": (16, "global", {"linalg.SaddleFactorization"}),
    "localized-superlu": (32, "localized", {
        "linalg.SaddleFactorization", "linalg.splu",
        "lod.assemble_corrector_set"}),
}


def _under(span, name, by_id):
    """Whether a span named `name` is an ancestor of `span`."""
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] == name:
            return True
        parent = by_id.get(parent["parent"])
    return False


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_traced_child_records_corrector_spans(tmp_path, case):
    fine_n, mode, expected = EXPECTED[case]
    config = tmp_path / "sweep.cfg"
    config.write_text(CONFIG + f"fine_n = {fine_n}\nmode = {mode}\n")
    result, spans = tmp_path / "result.json", tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, CHILD, str(result), str(spans),
         "convergence", "--config", str(config)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(result.read_text())["exit_code"] == 0
    records = [json.loads(line)
               for line in spans.read_text().splitlines() if line.strip()]
    names = {span["name"] for span in records}
    assert expected <= names, expected - names
    if case == "localized-superlu":
        by_id = {span["id"]: span for span in records}
        assert any(_under(span, "lod.assemble_corrector_set", by_id)
                   for span in records if span["name"] == "linalg.splu")


def test_saddle_factorization_takes_what_the_tracer_passes():
    """The tracer's subclass calls SaddleFactorization(A, C)."""
    assert str(inspect.signature(lod.SaddleFactorization.__init__)) == \
        "(self, A, C)"
