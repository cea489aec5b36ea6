"""Simulation setup: physics data, boundary/initial conditions, presets.

A :class:`Problem` bundles one validated simulation: the mesh, the pressure
law, the scaled Debye length, doping, Dirichlet data, initial data and the
recombination model.  Validation enforces the structural assumptions the
scheme's bounds and entropy decay rely on: density bounds m <= data <= M,
boundary compatibility h(N^D) - Psi^D = alpha_N and h(P^D) + Psi^D = alpha_P,
finite recombination parameters with R0 >= 0 (for every model, the none
model included), mass action N^D P^D = 1 whenever recombination is active,
and no recombination together with a nonlinear pressure law.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import constitutive as cst
from . import sparse as la
from .constitutive import PressureLaw
from .mesh import Mesh

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

    def rate(self, n, p):
        """R(n, p) = R0(n, p) (np - 1)."""
        return self.r0(n, p) * (np.asarray(n) * np.asarray(p) - 1.0)


NO_RECOMBINATION = RecombinationModel("none")


@dataclass(frozen=True)
class Problem:
    """The data of one simulation.  The data bounds m, M, the quasi-Fermi
    constants alpha_N, alpha_P and the Poisson Dirichlet term are derived
    from it, so they hold for any instance (``dataclasses.replace`` too)."""
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

    @cached_property
    def _bounds(self) -> "tuple[float, float]":
        data = np.concatenate([self.n_initial, self.p_initial,
                               self.n_dirichlet, self.p_dirichlet])
        return float(np.min(data)), float(np.max(data))

    @cached_property
    def _fermi_levels(self) -> np.ndarray:
        """Rows h(N^D) - Psi^D and h(P^D) + Psi^D per Dirichlet edge, whose
        first entries are alpha_N, alpha_P; ``_validate`` checks each is constant."""
        return np.stack([cst.enthalpy(self.law, self.n_dirichlet) - self.psi_dirichlet,
                         cst.enthalpy(self.law, self.p_dirichlet) + self.psi_dirichlet])

    m = property(lambda self: self._bounds[0])
    M = property(lambda self: self._bounds[1])
    alpha_n = property(lambda self: float(self._fermi_levels[0, 0]))
    alpha_p = property(lambda self: float(self._fermi_levels[1, 0]))

    @cached_property
    def poisson_dirichlet(self) -> np.ndarray:
        """lambda^2 g, the Dirichlet potential's term in the Poisson
        right-hand side."""
        _, g = la.tpfa_operator(self.mesh, 1.0, 1.0, 0.0, self.psi_dirichlet)
        return self.lambda2 * g

    @property
    def experimental(self) -> bool:
        """m = 0: degenerate data, outside the decay theorem's hypotheses."""
        return self.m == 0.0

    @property
    def doping_inf_norm(self) -> float:
        return float(np.max(np.abs(self.doping), initial=0.0))

    def initial_state(self) -> "tuple[np.ndarray, np.ndarray]":
        return self.n_initial.copy(), self.p_initial.copy()


@dataclass
class State:
    """Cell values of the densities and the potential at one time level.

    The Dirichlet edge values are the same at every level; they live on the
    :class:`Problem` (``n_dirichlet``, ``p_dirichlet``, ``psi_dirichlet``).
    """
    n: np.ndarray
    p: np.ndarray
    psi: np.ndarray
    step: int = 0
    time: float = 0.0


def _validate(problem: Problem) -> Problem:
    if not (math.isfinite(problem.lambda2) and problem.lambda2 > 0.0):
        raise HypothesisError(
            f"lambda^2 must be finite and positive, got {problem.lambda2!r}")
    if not (math.isfinite(problem.m) and math.isfinite(problem.M)):
        raise HypothesisError("density data must be finite")
    for name, values in (("doping", problem.doping),
                         ("Dirichlet potential", problem.psi_dirichlet)):
        if not np.all(np.isfinite(values)):
            raise HypothesisError(f"{name} must be finite")
    if problem.m < 0.0:
        raise HypothesisError("density data must be nonnegative (m >= 0)")
    levels = problem._fermi_levels
    if levels.shape[1] == 0:
        raise HypothesisError("no Dirichlet edges: boundary compatibility undefined")
    if np.max(np.abs(levels - levels[:, :1])) > _COMPAT_TOL:
        raise HypothesisError(
            "boundary compatibility violated: h(N^D)-Psi^D and h(P^D)+Psi^D "
            "must be constant on the Dirichlet boundary")

    # Parameters given with the none model go unused but must still be valid.
    _validate_recombination(problem.recombination)
    if not problem.recombination.is_none:
        if not problem.law.is_isothermal:
            raise HypothesisError(
                "recombination requires the isothermal pressure law (R=0 otherwise)")
        mass_action = problem.n_dirichlet * problem.p_dirichlet
        if np.max(np.abs(mass_action - 1.0)) > 1e-10:
            raise HypothesisError("mass action N^D * P^D = 1 violated on the "
                                  "Dirichlet boundary")
        if abs(problem.alpha_n + problem.alpha_p) > 1e-10:
            raise HypothesisError("alpha_N + alpha_P = 0 required with recombination")
    return problem


def _validate_recombination(model: RecombinationModel) -> None:
    """Finite parameters with R0 >= 0, which the entropy decay needs:
    tau_c > 0 and every other parameter nonnegative."""
    for name in ("scale", "tau_n", "tau_p", "tau_c", "c_n", "c_p"):
        value = getattr(model, name)
        if name == "tau_c":
            ok, sign = math.isfinite(value) and value > 0.0, "positive"
        else:
            ok, sign = math.isfinite(value) and value >= 0.0, "nonnegative"
        if not ok:
            raise HypothesisError(f"recombination parameter {name} must be finite "
                                  f"and {sign}, got {value!r}")


def discretize_data(mesh: Mesh, law: PressureLaw, lambda2: float,
                    doping: Callable, n_initial: Callable, p_initial: Callable,
                    n_dirichlet: Callable, p_dirichlet: Callable,
                    psi_dirichlet: Callable,
                    recombination: RecombinationModel = NO_RECOMBINATION) -> Problem:
    """Build a validated Problem from function-valued data.

    Cell data are taken at cell centers and boundary data at edge midpoints
    (midpoint quadrature; second order for smooth data).  Each callable is
    called once, with the arrays of x and of y coordinates, and returns an
    array of their shape or a scalar for all of them.
    """
    xc, yc = mesh.cell_centers.T
    de = mesh.dirichlet_edges
    xm, ym = (0.5 * (mesh.edge_p1[de] + mesh.edge_p2[de])).T

    def at_cells(f):
        return np.array(np.broadcast_to(f(xc, yc), xc.shape), dtype=float)

    def at_edges(f):
        return np.array(np.broadcast_to(f(xm, ym), xm.shape), dtype=float)

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


def _pn_doping(x, y):
    """N-region +1, P-region -1 in [0,0.5]x[0.5,1]."""
    return np.where((x < 0.5) & (y > 0.5), -1.0, 1.0)


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
        return lambda x, y: np.where(y < 0.5, bottom, top)

    n_d = contact(n0, n1)
    p_d = contact(p0, p1)

    def psi_d(x, y):
        return 0.5 * (cst.enthalpy(law, n_d(x, y)) - cst.enthalpy(law, p_d(x, y)))

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
