"""Finite-volume drift-diffusion simulator with entropy diagnostics."""

from .constitutive import PressureLaw, dr_mean, enthalpy, big_h, g_inverse
from .diagnostics import (DiagnosticsRecord, check_entropy_chain, entropy,
                          f_functional, fit_decay_rate, production, write_csv)
from .equilibrium import EquilibriumState, solve_equilibrium
from .flux import bernoulli, sg_flux
from .mesh import (Mesh, MeshError, build_cartesian, import_triangulation,
                   norm_l2, read_mesh_file, seminorm_h1, validate,
                   write_mesh_file)
from .problem import (NO_RECOMBINATION, HypothesisError, Problem,
                      RecombinationModel, State, discretize_data,
                      pn_junction_preset)
from .sparse import MMatrixReport, SolverError, check_m_matrix, solve
from .transient import BoundsTracker, InvariantError, Stepper, StepperConfig, run

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
