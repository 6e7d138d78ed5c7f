import os
import warnings

# BLAS gets one thread unless the developer says otherwise, as in the
# benchmark: the dense patch stacks run several times slower under
# OpenBLAS's default threads.  Set before numpy is first imported.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

# On a failing property test, Hypothesis's pytest plugin imports
# hypothesis.extra._patching, whose libcst import raises a
# DeprecationWarning (mypy_extensions.TypedDict); the error filter of the
# pytest config makes that an internal error, which ends the whole run.
# Imported here with only that category ignored, the module is cached and
# the filter stays strict for everything else.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: E402, F401
    except ImportError:  # without libcst the plugin writes no patches
        pass

from lodfem import build_uniform_mesh, refine_hierarchy  # noqa: E402

# Property tests draw the same examples on every run (derandomize also turns
# the example database off), so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def small_hierarchy():
    """Coarse 4 / fine 16 hierarchy shared by interpolation and lod tests."""
    return refine_hierarchy(build_uniform_mesh(4), build_uniform_mesh(16))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
