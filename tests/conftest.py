import numpy as np
import pytest
from hypothesis import settings

from lodfem import build_uniform_mesh, refine_hierarchy

# Property tests draw the same examples on every run (derandomize also turns
# the example database off), so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def small_hierarchy():
    """Coarse 4 / fine 16 hierarchy shared by interpolation and lod tests."""
    return refine_hierarchy(build_uniform_mesh(4), 2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
