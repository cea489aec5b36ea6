"""Backward-Euler time stepping with a penalized decoupled fixed point.

Each implicit step is solved by Picard iteration of the map
(N, P) -> (N^, P^): first the potential is obtained from the linear Poisson
system with the current iterate, then two decoupled linear density systems
are solved whose coefficients (edge diffusion means, Bernoulli weights, and
the recombination factor in the isothermal case) are frozen at the iterate.
A penalty mu m(K)/(lambda^2 dt) on the diagonal keeps the systems strictly
diagonally dominant M-matrices, so the iterates stay nonnegative and, with
zero doping, inside the data bounds [m, M].
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from . import constitutive as cst
from . import sparse as la
from .flux import flux_coefficients
from .problem import HypothesisError, Problem, State, make_state


class InvariantError(RuntimeError):
    """A guaranteed discrete bound was violated beyond tolerance."""


@dataclass
class StepperConfig:
    dt: float = 1e-2
    t_end: float = 10.0
    fp_tol: float = 1e-10
    fp_max_iter: int = 200
    damping: float = 1.0          # Picard damping, auto-halved down to 0.125
    check_m_matrices: bool = False

    def validate(self, problem: Problem) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise HypothesisError(f"time step must be finite and positive, got {self.dt!r}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise HypothesisError(
                f"end time must be finite and nonnegative, got {self.t_end!r}")
        cinf = problem.doping_inf_norm
        if cinf > 0.0 and self.dt > problem.lambda2 / cinf:
            raise HypothesisError(
                f"time step {self.dt:g} exceeds lambda^2/||C||_inf = "
                f"{problem.lambda2 / cinf:g} required with nonzero doping")
        if not (0.0 < self.damping <= 1.0):
            raise HypothesisError("damping must lie in (0, 1]")


class BoundsTracker:
    """Density bound sequences m^n, M^n.

    m^n = m (1 + dt ||C||/lambda^2)^{-n}, M^n = M (1 - dt ||C||/lambda^2)^{-n};
    both reduce to the constants m, M when the doping vanishes.
    """

    def __init__(self, problem: Problem, dt: float):
        self.m = problem.m
        self.M = problem.M
        self.rho = dt * problem.doping_inf_norm / problem.lambda2

    def lower(self, n: int) -> float:
        return self.m * (1.0 + self.rho) ** (-n)

    def upper(self, n: int) -> float:
        return self.M * (1.0 - self.rho) ** (-n)


@dataclass
class StepReport:
    iterations: int
    increment: float
    residual: float
    damping: float
    bound_excess: float = 0.0


class Stepper:
    """Owns the assembled operators for one problem/config pair."""

    def __init__(self, problem: Problem, config: StepperConfig):
        config.validate(problem)
        self.problem = problem
        self.config = config
        mesh = problem.mesh
        self.mesh = mesh
        self.law = problem.law
        self.lam2 = problem.lambda2
        self.mk = mesh.cell_measures

        self.L, g = la.tpfa_system(mesh, 1.0, 1.0, 0.0, problem.psi_dirichlet)
        self._poisson_lu = spla.splu(self.lam2 * self.L)
        self._poisson_b_dir = self.lam2 * g

    # -- linear building blocks -------------------------------------------

    def solve_poisson(self, n_cells, p_cells) -> np.ndarray:
        """Potential from the linear Poisson system with given densities."""
        b = self._poisson_b_dir + self.mk * (p_cells - n_cells + self.problem.doping)
        psi = self._poisson_lu.solve(b)
        res = np.max(np.abs(self.lam2 * (self.L @ psi) - b), initial=0.0)
        if res > 1e-12 * max(1.0, np.max(np.abs(b), initial=0.0)):
            raise la.SolverError(f"Poisson residual {res:.3e} too large")
        return psi

    def initial_state(self) -> State:
        """State at time zero: initial densities and the matching potential."""
        n0, p0 = self.problem.initial_state()
        return make_state(self.problem, n0, p0, self.solve_poisson(n0, p0))

    def _density_system(self, dens, dens_dir, dpsi, prev, mu, r0_diag, r0_rhs):
        """Assemble A, b for one linearized density system.

        ``dpsi`` must already carry the species sign (potential flipped for
        holes).  ``r0_diag``/``r0_rhs`` add the frozen recombination coupling.
        """
        mesh = self.mesh
        other = mesh.edge_other_values(dens, dens_dir)
        dr = cst.dr_mean(self.law, dens[mesh.edge_cells[:, 0]], other)
        a_fwd, a_bwd = flux_coefficients(dpsi, dr)
        pen = self.mk / self.config.dt * (1.0 + mu / self.lam2)
        A, g = la.tpfa_system(mesh, a_fwd, a_bwd, pen + r0_diag, dens_dir)
        b = self.mk / self.config.dt * (mu / self.lam2 * dens + prev) + r0_rhs
        return A, b + g

    def _density_systems(self, n_it, p_it, psi_cells, n_prev, p_prev, mu):
        """(A_N, b_N), (A_P, b_P) with every coefficient frozen at the iterate."""
        pr = self.problem
        dpsi = (self.mesh.edge_other_values(psi_cells, pr.psi_dirichlet)
                - psi_cells[self.mesh.edge_cells[:, 0]])
        if pr.recombination.is_none:
            r0 = np.zeros(self.mesh.n_cells)
        else:
            r0 = pr.recombination.r0(n_it, p_it)
        return (self._density_system(n_it, pr.n_dirichlet, dpsi, n_prev, mu,
                                     self.mk * r0 * p_it, self.mk * r0),
                self._density_system(p_it, pr.p_dirichlet, -dpsi, p_prev, mu,
                                     self.mk * r0 * n_it, self.mk * r0))

    def linearized_density_step(self, n_it, p_it, psi_cells, n_prev, p_prev, mu):
        """One application of the decoupled linear density solves."""
        (A_n, b_n), (A_p, b_p) = self._density_systems(
            n_it, p_it, psi_cells, n_prev, p_prev, mu)
        if self.config.check_m_matrices:
            for name, A in (("A_N", A_n), ("A_P", A_p)):
                rep = la.check_m_matrix(A)
                if not rep.is_m_matrix:
                    raise InvariantError(
                        f"{name} is not an M-matrix: {rep.violations[:3]}")
        return la.solve(A_n, b_n), la.solve(A_p, b_p)

    # -- nonlinear step ----------------------------------------------------

    def scheme_residuals(self, n_new, p_new, psi_cells, n_prev, p_prev):
        """Residuals of the implicit balance equations at given values.

        The density systems assembled at x = (n_new, p_new) and applied to
        the same x are the implicit balance, so the residual is A x - b; the
        penalty terms cancel there, and mu = 0 leaves them out altogether.
        """
        (A_n, b_n), (A_p, b_p) = self._density_systems(
            n_new, p_new, psi_cells, n_prev, p_prev, 0.0)
        return A_n @ n_new - b_n, A_p @ p_new - b_p

    def advance(self, state: State, tracker: BoundsTracker) -> "tuple[State, StepReport]":
        cfg = self.config
        pr = self.problem
        n_prev = state.n.cell_values
        p_prev = state.p.cell_values
        n_it = n_prev.copy()
        p_it = p_prev.copy()
        step_index = state.step + 1

        upper_next = tracker.upper(step_index)
        mu = cfg.dt * max(upper_next, float(np.max(n_it, initial=0.0)),
                          float(np.max(p_it, initial=0.0)))

        omega = cfg.damping
        best_inc = np.inf
        inc = np.inf
        calm_streak = 0
        psi = self.solve_poisson(n_it, p_it)
        iterations = 0
        residual = np.inf
        for iterations in range(1, cfg.fp_max_iter + 1):
            n_hat, p_hat = self.linearized_density_step(
                n_it, p_it, psi, n_prev, p_prev, mu)
            n_new = omega * n_hat + (1.0 - omega) * n_it
            p_new = omega * p_hat + (1.0 - omega) * p_it
            inc = max(np.max(np.abs(n_new - n_it), initial=0.0),
                      np.max(np.abs(p_new - p_it), initial=0.0))
            # Damp only on significant growth (10x over the best increment so
            # far): the increment of a convergent iteration need not be
            # monotone, e.g. when the largest component moves between cells,
            # and halving on every raw bump stalls the contraction for good.
            if inc > 10.0 * best_inc:
                omega = max(omega / 2.0, 0.125)
                calm_streak = 0
            else:
                calm_streak += 1
                if calm_streak >= 5 and omega < cfg.damping:
                    omega = min(cfg.damping, 2.0 * omega)
                    calm_streak = 0
            best_inc = min(best_inc, inc)
            n_it, p_it = n_new, p_new
            psi = self.solve_poisson(n_it, p_it)
            if inc <= cfg.fp_tol:
                rn, rp = self.scheme_residuals(n_it, p_it, psi, n_prev, p_prev)
                residual = max(np.max(np.abs(rn), initial=0.0),
                               np.max(np.abs(rp), initial=0.0))
                if residual <= 10.0 * cfg.fp_tol:
                    break
        else:
            raise la.SolverError(
                f"fixed point did not converge in {cfg.fp_max_iter} iterations "
                f"(last increment {inc:.3e}, residual {residual:.3e})")

        lo = tracker.lower(step_index) - cfg.fp_tol
        hi = tracker.upper(step_index) + cfg.fp_tol
        excess = max(float(lo - min(n_it.min(), p_it.min())),
                     float(max(n_it.max(), p_it.max()) - hi), 0.0)
        if excess > 0.0:
            msg = (f"density bounds [{lo:.6g}, {hi:.6g}] violated by {excess:.3e} "
                   f"at step {step_index}")
            if pr.doping_inf_norm == 0.0 and pr.m > 0.0:
                raise InvariantError(msg)
            warnings.warn(msg, RuntimeWarning)

        report = StepReport(
            iterations=iterations, increment=float(inc),
            residual=float(residual), damping=omega, bound_excess=excess)
        new_state = make_state(pr, n_it, p_it, psi,
                               step=step_index, time=state.time + cfg.dt)
        return new_state, report


def run(problem: Problem, config: StepperConfig, equilibrium_state,
        sink=None, state_sink=None):
    """Execute floor(t_end/dt) steps, emitting one diagnostics record per level.

    ``equilibrium_state`` provides the reference for the entropy functionals;
    ``sink``, when given, is called with each DiagnosticsRecord, and
    ``state_sink`` with each State (including the initial one).  Returns the
    final state and the list of records.
    """
    from . import diagnostics as diag

    eq = (equilibrium_state.as_state()
          if hasattr(equilibrium_state, "as_state") else equilibrium_state)
    stepper = Stepper(problem, config)
    tracker = BoundsTracker(problem, config.dt)
    state = stepper.initial_state()

    records = []

    def emit(rec):
        records.append(rec)
        if sink is not None:
            sink(rec)

    emit(diag.make_record(state, eq, problem, fp_iters=0, prev_record=None))
    if state_sink is not None:
        state_sink(state)
    n_steps = int(np.floor(config.t_end / config.dt + 1e-9))
    for _ in range(n_steps):
        try:
            state, report = stepper.advance(state, tracker)
        except (la.SolverError, InvariantError) as exc:
            raise type(exc)(f"step {state.step + 1}: {exc}") from exc
        emit(diag.make_record(state, eq, problem,
                              fp_iters=report.iterations, prev_record=records[-1],
                              dt=config.dt))
        if state_sink is not None:
            state_sink(state)
    return state, records
