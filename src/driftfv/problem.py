"""Simulation setup: physics data, boundary/initial conditions, presets.

A :class:`Problem` bundles one validated simulation: the mesh, the pressure
law, the scaled Debye length, doping, Dirichlet data, initial data and the
recombination model.  Validation enforces the structural assumptions the
scheme's bounds and entropy decay rely on: density bounds m <= data <= M,
boundary compatibility h(N^D) - Psi^D = alpha_N and h(P^D) + Psi^D = alpha_P,
mass action N^D P^D = 1 whenever recombination is active, and no
recombination together with a nonlinear pressure law.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import constitutive as cst
from .constitutive import PressureLaw
from .mesh import DiscreteFunction, Mesh

_COMPAT_TOL = 1e-12


class HypothesisError(ValueError):
    """A structural assumption on the problem data is violated."""


@dataclass(frozen=True)
class RecombinationModel:
    """Recombination-generation rate R(n, p) = R0(n, p) (np - 1).

    Variants: ``none`` (R identically 0), ``srh`` with
    R0 = scale/(tau_p n + tau_n p + tau_c), and ``auger`` with
    R0 = c_n n + c_p p.
    """
    kind: str = "none"
    scale: float = 10.0
    tau_n: float = 1.0
    tau_p: float = 1.0
    tau_c: float = 1.0
    c_n: float = 0.1
    c_p: float = 0.1

    def __post_init__(self):
        if self.kind not in ("none", "srh", "auger"):
            raise ValueError(f"unknown recombination model {self.kind!r}")

    @property
    def is_none(self) -> bool:
        return self.kind == "none"

    def r0(self, n, p):
        n = np.asarray(n, dtype=float)
        p = np.asarray(p, dtype=float)
        if self.kind == "none":
            return np.zeros(np.broadcast(n, p).shape)
        if self.kind == "srh":
            return self.scale / (self.tau_p * n + self.tau_n * p + self.tau_c)
        return self.c_n * n + self.c_p * p


NO_RECOMBINATION = RecombinationModel("none")


def evaluate_recombination(model: RecombinationModel, n, p):
    """Return (R, R0) at the given densities."""
    r0 = model.r0(n, p)
    return r0 * (np.asarray(n) * np.asarray(p) - 1.0), r0


@dataclass
class Problem:
    mesh: Mesh
    law: PressureLaw
    lambda2: float
    doping: np.ndarray              # C_K per cell
    n_dirichlet: np.ndarray         # per Dirichlet edge
    p_dirichlet: np.ndarray
    psi_dirichlet: np.ndarray
    n_initial: np.ndarray           # per cell
    p_initial: np.ndarray
    recombination: RecombinationModel = NO_RECOMBINATION
    m: float = 0.0                  # data bounds, derived at build time
    M: float = 0.0
    alpha_n: float = 0.0            # quasi-Fermi constants from compatibility
    alpha_p: float = 0.0
    experimental: bool = False      # set when m = 0 (no decay theorem applies)

    @property
    def doping_inf_norm(self) -> float:
        return float(np.max(np.abs(self.doping), initial=0.0))

    def initial_state(self) -> "tuple[np.ndarray, np.ndarray]":
        return self.n_initial.copy(), self.p_initial.copy()


@dataclass
class State:
    """Densities and potential at one time level."""
    n: DiscreteFunction
    p: DiscreteFunction
    psi: DiscreteFunction
    step: int = 0
    time: float = 0.0


def make_state(problem: Problem, n_cells, p_cells, psi_cells,
               step: int = 0, time: float = 0.0) -> State:
    return State(
        n=DiscreteFunction(np.asarray(n_cells, float), problem.n_dirichlet.copy()),
        p=DiscreteFunction(np.asarray(p_cells, float), problem.p_dirichlet.copy()),
        psi=DiscreteFunction(np.asarray(psi_cells, float), problem.psi_dirichlet.copy()),
        step=step, time=time)


def _validate(problem: Problem) -> Problem:
    if not (math.isfinite(problem.lambda2) and problem.lambda2 > 0.0):
        raise HypothesisError(
            f"lambda^2 must be finite and positive, got {problem.lambda2!r}")
    law = problem.law
    data = np.concatenate([problem.n_initial, problem.p_initial,
                           problem.n_dirichlet, problem.p_dirichlet])
    for name, values in (("density data", data), ("doping", problem.doping),
                         ("Dirichlet potential", problem.psi_dirichlet)):
        if not np.all(np.isfinite(values)):
            raise HypothesisError(f"{name} must be finite")
    if np.any(data < 0.0):
        raise HypothesisError("density data must be nonnegative (m >= 0)")
    problem.m = float(np.min(data))
    problem.M = float(np.max(data))
    problem.experimental = problem.m == 0.0

    hn = cst.enthalpy(law, problem.n_dirichlet)
    hp = cst.enthalpy(law, problem.p_dirichlet)
    a_n = hn - problem.psi_dirichlet
    a_p = hp + problem.psi_dirichlet
    if len(a_n) == 0:
        raise HypothesisError("no Dirichlet edges: boundary compatibility undefined")
    problem.alpha_n = float(a_n[0])
    problem.alpha_p = float(a_p[0])
    if (np.max(np.abs(a_n - problem.alpha_n)) > _COMPAT_TOL
            or np.max(np.abs(a_p - problem.alpha_p)) > _COMPAT_TOL):
        raise HypothesisError(
            "boundary compatibility violated: h(N^D)-Psi^D and h(P^D)+Psi^D "
            "must be constant on the Dirichlet boundary")

    if not problem.recombination.is_none:
        if not law.is_isothermal:
            raise HypothesisError(
                "recombination requires the isothermal pressure law (R=0 otherwise)")
        mass_action = problem.n_dirichlet * problem.p_dirichlet
        if np.max(np.abs(mass_action - 1.0)) > 1e-10:
            raise HypothesisError("mass action N^D * P^D = 1 violated on the "
                                  "Dirichlet boundary")
        if abs(problem.alpha_n + problem.alpha_p) > 1e-10:
            raise HypothesisError("alpha_N + alpha_P = 0 required with recombination")
    return problem


def discretize_data(mesh: Mesh, law: PressureLaw, lambda2: float,
                    doping: Callable, n_initial: Callable, p_initial: Callable,
                    n_dirichlet: Callable, p_dirichlet: Callable,
                    psi_dirichlet: Callable,
                    recombination: RecombinationModel = NO_RECOMBINATION) -> Problem:
    """Build a validated Problem from function-valued data.

    Cell data are taken at cell centers and boundary data at edge midpoints
    (midpoint quadrature; second order for smooth data).
    """
    xc, yc = mesh.cell_centers[:, 0], mesh.cell_centers[:, 1]
    de = mesh.dirichlet_edges
    mid = 0.5 * (mesh.edge_p1[de] + mesh.edge_p2[de])
    xm, ym = mid[:, 0], mid[:, 1]

    def at_cells(f):
        return np.array([float(f(x, y)) for x, y in zip(xc, yc)])

    def at_edges(f):
        return np.array([float(f(x, y)) for x, y in zip(xm, ym)])

    problem = Problem(
        mesh=mesh, law=law, lambda2=float(lambda2),
        doping=at_cells(doping),
        n_dirichlet=at_edges(n_dirichlet),
        p_dirichlet=at_edges(p_dirichlet),
        psi_dirichlet=at_edges(psi_dirichlet),
        n_initial=at_cells(n_initial),
        p_initial=at_cells(p_initial),
        recombination=recombination)
    return _validate(problem)


# -- PN-junction presets ---------------------------------------------------

PRESET_CASES = ("linear_r0", "linear_srh", "linear_auger",
                "nonlinear_nondegenerate", "nonlinear_degenerate")
PRESET_DOPINGS = ("zero", "pn")


@dataclass
class PresetInputs:
    """Function-valued data for one diode test case on (0,1)^2."""
    case: str
    doping_kind: str
    law: PressureLaw
    lambda2: float
    recombination: RecombinationModel
    doping: Callable
    n_initial: Callable
    p_initial: Callable
    n_dirichlet: Callable
    p_dirichlet: Callable
    psi_dirichlet: Callable
    dirichlet_predicate: Callable

    @property
    def name(self) -> str:
        return f"{self.case}_{self.doping_kind}"

    def build(self, mesh: Mesh) -> Problem:
        return discretize_data(
            mesh, self.law, self.lambda2, self.doping,
            self.n_initial, self.p_initial,
            self.n_dirichlet, self.p_dirichlet, self.psi_dirichlet,
            self.recombination)


def contact_predicate(x, y) -> bool:
    """Dirichlet contacts of the diode: {y=0} and {y=1, x<=0.25}."""
    eps = 1e-12
    return (y < eps) or (y > 1.0 - eps and x <= 0.25 + eps)


def _pn_doping(x, y) -> float:
    """N-region +1, P-region -1 in [0,0.5]x[0.5,1]."""
    return -1.0 if (x < 0.5 and y > 0.5) else 1.0


def _no_doping(x, y) -> float:
    return 0.0


def diode_inputs(law: PressureLaw, recombination: RecombinationModel,
                 n_contacts, p_contacts, doping: str = "zero",
                 lambda2: float = 1.0, case: str = "diode") -> PresetInputs:
    """Diode on the unit square with contact values (bottom, top) per species.

    Dirichlet contacts as in :func:`contact_predicate`, Neumann elsewhere;
    Psi^D = (h(N^D)-h(P^D))/2 so the boundary is in thermal equilibrium;
    initial profiles interpolate the contact values along 1 - sqrt(y);
    doping is "zero" or "pn" (:func:`_pn_doping`).
    """
    if doping not in PRESET_DOPINGS:
        raise ValueError(f"unknown doping {doping!r} (choose from {PRESET_DOPINGS})")
    n0, n1 = n_contacts
    p0, p1 = p_contacts

    def contact(bottom, top):
        return lambda x, y: bottom if y < 0.5 else top

    n_d = contact(n0, n1)
    p_d = contact(p0, p1)

    def psi_d(x, y):
        return 0.5 * (float(cst.enthalpy(law, n_d(x, y)))
                      - float(cst.enthalpy(law, p_d(x, y))))

    def n_init(x, y):
        return n1 + (n0 - n1) * (1.0 - np.sqrt(y))

    def p_init(x, y):
        return p1 + (p0 - p1) * (1.0 - np.sqrt(y))

    return PresetInputs(
        case=case, doping_kind=doping, law=law, lambda2=lambda2,
        recombination=recombination,
        doping=_pn_doping if doping == "pn" else _no_doping,
        n_initial=n_init, p_initial=p_init,
        n_dirichlet=n_d, p_dirichlet=p_d, psi_dirichlet=psi_d,
        dirichlet_predicate=contact_predicate)


_E = float(np.e)
# Pressure law, recombination, (n_bottom, n_top), (p_bottom, p_top) per case.
_PRESETS = {
    "linear_r0": (PressureLaw.isothermal(), NO_RECOMBINATION,
                  (_E, 1.0), (1.0 / _E, 1.0)),
    "linear_srh": (PressureLaw.isothermal(),
                   RecombinationModel("srh", scale=10.0, tau_n=1.0, tau_p=1.0, tau_c=1.0),
                   (_E, 1.0), (1.0 / _E, 1.0)),
    "linear_auger": (PressureLaw.isothermal(),
                     RecombinationModel("auger", c_n=0.1, c_p=0.1),
                     (_E, 1.0), (1.0 / _E, 1.0)),
    "nonlinear_nondegenerate": (PressureLaw.power(5.0 / 3.0), NO_RECOMBINATION,
                                (0.9, 0.1), (0.1, 0.9)),
    "nonlinear_degenerate": (PressureLaw.power(5.0 / 3.0), NO_RECOMBINATION,
                             (1.0, 0.0), (0.0, 1.0)),
}


def pn_junction_preset(case: str, doping: str = "zero") -> PresetInputs:
    """PN-junction diode test case on the unit square (:func:`diode_inputs`).

    lambda^2 = 1; the degenerate case has zero contact densities, so m = 0
    and it runs as an experimental case.
    """
    if case not in PRESET_CASES:
        raise ValueError(f"unknown preset case {case!r} (choose from {PRESET_CASES})")
    law, recomb, n_contacts, p_contacts = _PRESETS[case]
    return diode_inputs(law, recomb, n_contacts, p_contacts, doping, case=case)
