"""Localized orthogonal decomposition multiscale FEM on the unit square."""

from .coefficient import CoefficientField, make_checkerboard, make_constant, \
    make_periodic
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .fem import AssembledOperators, assemble_load, assemble_mass, \
    assemble_stiffness, build_operators, error_norms, pad_full, solve_reference
from .interpolation import build_interpolation
from .linalg import SolverFailure, spd_solve
from .lod import CorrectorSet, MultiscaleSpace, assemble_corrector_set, \
    build_multiscale_space, measure_corrector_decay, solve_multiscale
from .mesh import MeshHierarchy, Patch, TriMesh, build_uniform_mesh, \
    element_patch, refine_hierarchy

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
